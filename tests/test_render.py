import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ray_sphere_hit, small_camera, vacuum_scene
from volsampler import render
from volsampler.bench import Pipeline, method_samples, prepare_proposals
from volsampler.config import Config
from volsampler.geometry import Camera, clip_to_box
from volsampler.metrics import psnr
from volsampler.render import (PixelSamples, _quadrature_weights, bin_midpoints,
                               camera_geometry, certified_empty, dense_weights,
                               integrate_batch, render_full, render_probe,
                               render_reference, render_uniform, weighted_radiance)
from volsampler.sampling import (inverse_cdf_sample_edges, inverse_cdf_sample_grid,
                                 normalize_pdf, stratified_u_block)
from volsampler.scenes import (DENSITY_ZERO_BETAS, SCENE_NAMES, SceneOracle,
                               laplace_density, make_scene)


def reference_weights(sigma, delta):
    """Independent scalar-loop evaluation of the quadrature weights."""
    n = len(sigma)
    w = np.zeros(n)
    t_run = 1.0
    for i in range(n):
        alpha = 1.0 - np.exp(-sigma[i] * delta[i])
        w[i] = t_run * alpha
        t_run *= np.exp(-sigma[i] * delta[i])
    return w, t_run


class TestQuadratureWeights:
    def test_two_sample_hand_case(self):
        # sigma_i * delta_i = ln 2 for both -> w = (1/2, 1/4)
        ln2 = np.log(2.0)
        w = _quadrature_weights(np.array([[ln2, ln2]]), np.ones((1, 2)))
        np.testing.assert_allclose(w[0], [0.5, 0.25], rtol=1e-12)

    @given(hnp.arrays(np.float64, (7,), elements=st.floats(0, 50)),
           hnp.arrays(np.float64, (7,), elements=st.floats(0, 0.5)))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_loop_and_partitions_unity(self, sigma, delta):
        w = _quadrature_weights(sigma[None], delta[None])
        ref_w, ref_t = reference_weights(sigma, delta)
        np.testing.assert_allclose(w[0], ref_w, atol=1e-12)
        assert abs(w[0].sum() + ref_t - 1.0) < 1e-6
        trans = np.concatenate([[1.0], np.exp(-np.cumsum(sigma * delta))])
        assert np.all(np.diff(trans) <= 1e-15)


# one ray down the optical axis, clipped to the box at [1.8, 3.8]
AXIS_O = np.array([[0.0, 0.0, 2.8]])
AXIS_D = np.array([[0.0, 0.0, -1.0]])
AXIS_FAR = np.array([3.8])


class TestIntegrateRay:
    def test_opaque_single_sample(self):
        sc = make_scene("sphere", beta=1e-4)
        out = integrate_batch(sc, AXIS_O, AXIS_D, np.array([[2.8]]), AXIS_FAR)
        assert sc.sdf(AXIS_O + 2.8 * AXIS_D)[0] == pytest.approx(-1.0)  # the center
        assert out["weights"][0, 0] == pytest.approx(1.0, abs=1e-12)
        expected_rgb = sc.radiance(np.array([[0.0, 0.0, 0.0]]),
                                   np.array([[0.0, 0.0, -1.0]]), np.array([0]))[0]
        np.testing.assert_allclose(out["rgb"][0], expected_rgb, atol=1e-12)

    def test_vacuum_all_weights_zero(self):
        out = integrate_batch(vacuum_scene(), AXIS_O, AXIS_D,
                              np.linspace(1.9, 3.7, 16)[None], AXIS_FAR)
        np.testing.assert_array_equal(out["weights"][0], np.zeros(16))
        np.testing.assert_array_equal(out["rgb"][0], np.zeros(3))

    def test_rejects_empty_and_unsorted(self):
        sc = make_scene("sphere")
        with pytest.raises(ValueError):
            integrate_batch(sc, AXIS_O, AXIS_D, np.empty((1, 0)), AXIS_FAR)
        # render_full checks the positions that come from outside render.py
        t = np.full((4, 2), 2.0)
        t[2] = [2.5, 2.0]
        with pytest.raises(ValueError, match="sorted"):
            render_full(sc, small_camera(2), PixelSamples(2, 2, [(np.arange(4), t, None)]))

    def test_matches_scalar_reference_on_real_scene(self):
        sc = make_scene("two-spheres")
        t = np.linspace(1.85, 3.7, 48)
        out = integrate_batch(sc, AXIS_O, AXIS_D, t[None], AXIS_FAR)
        w = out["weights"][0]
        sigma = laplace_density(sc.sdf(AXIS_O + t[:, None] * AXIS_D), out["beta"][0])
        delta = np.append(np.diff(t), 3.8 - t[-1])
        ref_w, _ = reference_weights(sigma, delta)
        np.testing.assert_allclose(w, ref_w, atol=1e-12)
        assert w.sum() <= 1.0 + 1e-6


class RecordingScene(SceneOracle):
    """A scene that records the points reaching `fields` and `radiance`."""

    @classmethod
    def of(cls, scene: SceneOracle) -> "RecordingScene":
        rec = cls(**{f.name: getattr(scene, f.name) for f in dataclasses.fields(scene)})
        rec.seen = {"fields": [], "radiance": []}
        return rec

    def fields(self, p, v):
        self.seen["fields"].append(np.array(p))
        return super().fields(p, v)

    def radiance(self, p, v, ray):
        self.seen["radiance"].append(np.array(p))
        return super().radiance(p, v, ray)


# (scene, beta, camera side): every catalog scene at a tight beta and at its
# catalog beta (None). Three cases cover a property each: tight two-spheres,
# where most rays miss both spheres; the tight unit sphere, whose
# transmittance underflows to exactly 0 inside it; the textured sphere at
# catalog beta, whose soft band leaves no sample unweighted
SHADING_CASES = [(name, beta, 16 if beta else 8)
                 for name in SCENE_NAMES for beta in (0.0015, None)]


def _dense_batch(name, beta, res, spp=96):
    o, d, t_near, t_far = camera_geometry(small_camera(res))
    return make_scene(name, beta=beta), o, d, bin_midpoints(t_near, t_far, spp), t_far


class TestLiveShading:
    """integrate_batch shades only samples with w > 0; a zero weight adds
    0 * rgb == 0 to the same sum, so colours equal eager shading bit for bit."""

    @pytest.mark.parametrize("name,beta,res", SHADING_CASES)
    def test_matches_eager_shading_bitwise(self, name, beta, res):
        sc, o, d, t, t_far = _dense_batch(name, beta, res)
        out = integrate_batch(sc, o, d, t, t_far)
        w = out["weights"]
        n, k = t.shape
        # eager: shade every sample, then the same weighted sum
        p = (o[:, None, :] + t[:, :, None] * d[:, None, :]).reshape(-1, 3)
        v = np.broadcast_to(d[:, None, :], (n, k, 3)).reshape(-1, 3)
        rgb = sc.radiance(p, v, np.arange(n * k))  # one view per point
        # C order, so that np.sum adds each ray's samples one after another
        eager = np.sum(w[:, :, None] * np.ascontiguousarray(rgb).reshape(n, k, 3), axis=1)
        assert np.array_equal(out["rgb"], eager)

        live = w > 0.0
        if (name, beta) == ("two-spheres", 0.0015):
            assert (~live.any(axis=1)).sum() > n // 4 and live.any()
        elif (name, beta) == ("sphere", 0.0015):
            tau = laplace_density(sc.sdf(p).reshape(n, k), out["beta"]) * np.diff(
                np.concatenate([t, t_far[:, None]], axis=1), axis=1)
            trans = np.exp(-(np.cumsum(tau, axis=1) - tau))
            assert np.any(live.any(axis=1) & (trans == 0.0).any(axis=1))
        elif (name, beta) == ("textured-sphere", None):
            assert live.all()

    def test_one_view_per_ray_equals_a_view_per_point(self):
        # fields takes the N ray directions of N * k points; the tight
        # textured sphere's specular lobe reads them, and its weighted points
        # are a strict subset of every ray's points
        sc, o, d, t, t_far = _dense_batch("textured-sphere", 0.0015, 16)
        n, k = t.shape
        rows = np.flatnonzero(integrate_batch(sc, o, d, t, t_far)["weights"] > 0.0)
        assert k > 1 and 0 < rows.size < n * k
        p = (o[:, None, :] + t[:, :, None] * d[:, None, :]).reshape(-1, 3)
        views = np.repeat(d, k, axis=0)[rows]
        per_point = sc.radiance(p[rows], views, np.arange(rows.size))
        assert np.array_equal(sc.fields(p, d)[2](rows), per_point)
        assert not np.array_equal(per_point, sc.radiance(p[rows], -views,
                                                         np.arange(rows.size)))

    @pytest.mark.parametrize("name,beta,res", SHADING_CASES)
    def test_radiance_receives_exactly_the_weighted_points(self, name, beta, res):
        sc, o, d, t, t_far = _dense_batch(name, beta, res)
        rec = RecordingScene.of(sc)
        out = integrate_batch(rec, o, d, t, t_far)
        p = (o[:, None, :] + t[:, :, None] * d[:, None, :]).reshape(-1, 3)
        assert len(rec.seen["fields"]) == 1
        assert np.array_equal(rec.seen["fields"][0], p)
        assert len(rec.seen["radiance"]) == 1
        assert np.array_equal(rec.seen["radiance"][0], p[out["weights"].reshape(-1) > 0.0])

    def test_chunk_size_does_not_change_images(self, monkeypatch):
        sc = make_scene("two-spheres", beta=0.0015)
        cam = small_camera(32)
        images = []
        for chunk in (1 << 19, 1 << 15):
            monkeypatch.setattr(render, "_CHUNK_POINTS", chunk)
            images.append([render_uniform(sc, cam, 96, seed=3),
                           render_reference(sc, cam, seed=5)])
        assert render._chunk_rows(32 * 32, 96) < 32 * 32  # 2^15 splits the frame
        for a, b in zip(*images):
            for field in dataclasses.fields(a):
                assert np.array_equal(getattr(a, field.name), getattr(b, field.name))


class TestWeightedRadiance:
    """weighted_radiance adds w * rgb over the live samples only, with
    np.bincount; the dense sum over every sample adds +0.0 for each dead
    one, in the same order, so the bits agree."""

    N, K = 41, 385

    def weights(self, rng, case):
        w = rng.random((self.N, self.K)) + 1e-3  # all live
        if case == "dead":
            w[:] = 0.0
        elif case == "mixed":
            # per-ray live shares from 0 to 1, plus whole dead and live rays
            w *= rng.random((self.N, self.K)) < rng.random((self.N, 1))
            w[:5] = 0.0
            w[5:9] = rng.random((4, self.K)) + 1e-3
        return w

    @pytest.mark.parametrize("case", ["dead", "live", "mixed"])
    def test_equals_dense_weighted_sum_bitwise(self, rng, case):
        w = self.weights(rng, case)
        rgb = rng.random((self.N * self.K, 3))
        shaded = []

        def shade(rows):
            shaded.append(rows)
            return rgb[rows]

        got = weighted_radiance(w, shade)
        live = w.reshape(-1) > 0.0
        dense = np.sum(w[:, :, None] * np.where(live[:, None], rgb, 0.0).reshape(
            self.N, self.K, 3), axis=1)
        assert got.shape == (self.N, 3) and np.array_equal(got, dense)
        assert len(shaded) == 1
        assert np.array_equal(np.arange(live.size)[shaded[0]], np.flatnonzero(live))
        if case == "dead":
            assert not got.any()


def no_certificate(scene, origins, dirs, t_near, t_far):
    """A certified_empty that certifies no ray: every ray is rendered."""
    return np.zeros(len(t_near), dtype=bool)


def sampler_samples(scene, res):
    """The robust and stratified PixelSamples (8 spp) that the probe-lift
    proposal gives on a res x res default camera."""
    pipe = Pipeline.from_config(Config.load(None, overrides={
        "camera.height": str(res), "camera.width": str(res)}), seed=3)
    pipe = dataclasses.replace(pipe, scene=scene)
    prop = prepare_proposals(pipe)
    return {m: method_samples(m, prop, 8, 7, pipe) for m in ("robust", "stratified")}


Z_BINS, UNIFORM_SPP = 48, 32
# every renderer, as fn(scene, camera, sampler_samples, workers)
RENDERERS = {
    "probe": lambda sc, cam, smp, w: render_probe(sc, cam, Z_BINS, workers=w),
    "dense_weights": lambda sc, cam, smp, w: dense_weights(sc, cam, Z_BINS, workers=w),
    "uniform-midpoint": lambda sc, cam, smp, w: render_uniform(
        sc, cam, UNIFORM_SPP, mode="midpoint", workers=w),
    "uniform-stratified": lambda sc, cam, smp, w: render_uniform(
        sc, cam, UNIFORM_SPP, seed=3, workers=w),
    "full-robust": lambda sc, cam, smp, w: render_full(sc, cam, smp["robust"], workers=w),
    "full-stratified": lambda sc, cam, smp, w: render_full(
        sc, cam, smp["stratified"], workers=w),
    "reference": lambda sc, cam, smp, w: render_reference(sc, cam, seed=5, workers=w),
}


def rendered_arrays(out):
    """What a renderer computes: a weight grid, a probe's image and weights,
    or the four images of a RenderOutput."""
    if isinstance(out, np.ndarray):
        return [out]
    if hasattr(out, "weights"):
        return [out.image, out.weights]
    return [getattr(out, f.name) for f in dataclasses.fields(out)]


def points_per_ray(name, smp, n):
    """Field points (n,) that renderer `name` evaluates on each ray it renders."""
    if name.startswith("full-"):
        k = np.zeros(n, dtype=int)
        for idx, t, _ in smp[name[len("full-"):]].groups:
            k[idx] = t.shape[1]
        return k
    # the reference: 192 coarse points and 385 midpoints
    return np.full(n, {"probe": Z_BINS, "dense_weights": Z_BINS, "reference": 577}.get(
        name, UNIFORM_SPP))


def two_pass_reference(scene, camera, total, seed):
    """Reference implementation of render_reference as first written: the
    coarse pass over the whole image with integrate_batch, then every
    pixel's midpoints and widths through render_full, which here skips no
    ray."""
    n_coarse = total // 2
    o, d, t_near, t_far = camera_geometry(camera)
    n = o.shape[0]
    span = (t_far - t_near)[:, None]
    t_coarse = t_near[:, None] + stratified_u_block(n, n_coarse, seed, stream=103) * span
    u_fine = stratified_u_block(n, total - n_coarse, seed, stream=104)
    weights = integrate_batch(scene, o, d, t_coarse, t_far)["weights"]
    coarse_edges = np.concatenate([t_near[:, None], t_coarse, t_far[:, None]], axis=1)
    probs = np.concatenate([np.zeros((n, 1)), weights], axis=1)
    t_fine = inverse_cdf_sample_edges(probs, coarse_edges, u_fine)
    edges = np.sort(np.concatenate([coarse_edges, t_fine], axis=1), axis=1)
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
    width = np.diff(edges, axis=1)
    with mock.patch.object(render, "certified_empty", no_certificate):
        return render_full(scene, camera, PixelSamples(
            camera.height, camera.width, [(np.arange(n), mid, width)]))


class TestReferenceChunks:
    """render_reference finishes each chunk of rays before the next, and its
    coarse pass takes weights only; the images are those of the two-pass
    reference above."""

    @pytest.mark.parametrize("name,beta,seed", [
        pytest.param(name, beta, seed, id=f"{name}-{beta}" + ("" if seed == 5 else f"-seed{seed}"))
        for name, beta in [("two-spheres", 0.0015), ("sphere", 0.0015), ("torus", 0.0015),
                           ("blended-union", 0.0015), ("textured-sphere", None)]
        for seed in (5, 11)])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_two_pass_reference_bitwise(self, name, beta, seed, workers):
        # the two-pass reference renders every ray; render_reference skips
        # the rays certified empty (all but the textured sphere have some)
        sc = make_scene(name, beta=beta)
        cam = small_camera(24)
        got = render_reference(sc, cam, seed=seed, workers=workers)
        want = two_pass_reference(sc, cam, 384, seed)
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name

    def test_certified_rays_take_no_field_evaluations(self):
        # the skip is the chunk runner's, so it holds for every renderer
        sc = make_scene("two-spheres", beta=0.0015)
        cam = small_camera(24)
        certified = certified_empty(sc, *camera_geometry(cam))
        assert 0.2 < certified.mean() < 0.9
        smp = sampler_samples(sc, 24)
        for name, fn in RENDERERS.items():
            rec = RecordingScene.of(sc)
            fn(rec, cam, smp, 1)
            want = np.sum(points_per_ray(name, smp, certified.size)[~certified])
            assert sum(len(p) for p in rec.seen["fields"]) == want, name

    @pytest.mark.parametrize("workers", [1, 3])
    def test_all_certified_renders_zeros_without_fields(self, workers):
        # the skip is the chunk runner's, so it holds for every renderer
        cam = small_camera(16)
        smp = sampler_samples(vacuum_scene(), 16)
        for name, fn in RENDERERS.items():
            rec = RecordingScene.of(vacuum_scene())
            out = fn(rec, cam, smp, workers)
            assert rec.seen["fields"] == [], name
            for value in rendered_arrays(out):
                assert not value.any() and not np.signbit(value).any(), name

    def test_coarse_pass_shades_nothing(self):
        rec = RecordingScene.of(make_scene("textured-sphere"))
        cam = small_camera(8)
        render_reference(rec, cam, total=64, seed=5)
        # two field evaluations per chunk (coarse, fine); only the fine
        # pass's 65 midpoints per ray can be shaded
        assert len(rec.seen["fields"]) == 2 * len(rec.seen["radiance"])
        assert sum(len(p) for p in rec.seen["radiance"]) <= 64 * 65

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_chunks_check_their_samples(self, monkeypatch, bad):
        # a fine draw that breaks the sample contract is refused, as
        # render_full refuses it
        draw = render.inverse_cdf_sample_edges

        def broken(*args):
            t = draw(*args)
            t[-1, -1] = bad
            return t

        monkeypatch.setattr(render, "inverse_cdf_sample_edges", broken)
        with pytest.raises(ValueError, match="non-finite"):
            render_reference(make_scene("sphere"), small_camera(4), total=16, seed=1)

    @pytest.mark.parametrize("name,beta", [("two-spheres", 0.0015), ("textured-sphere", None)])
    def test_peak_memory_is_the_variate_blocks_and_one_chunk(self, name, beta):
        # By design, only the two variate blocks (N, total // 2) span the
        # image (drawing the second briefly holds one more), and a chunk
        # holds well under 64 float64 values per sample point. At 64^2, one
        # worker, the peaks measured were 20.5 MB (two-spheres) and 23.7 MB
        # (textured sphere), against 64.9 and 68.1 MB for the two-pass
        # reference, which held (N, total + 2) edges, midpoints and widths.
        sc = make_scene(name, beta=beta)
        res, total = 64, 384
        render_reference(sc, small_camera(4), total, seed=5)  # first-call set-up
        tracemalloc.start()
        try:
            render_reference(sc, small_camera(res), total, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = res * res * (total // 2) * 8
        bound = max(3 * block, 2 * block + 64 * render._CHUNK_POINTS * 8)
        assert peak < bound, (peak, bound)


def random_box_rays(rng, n):
    """n unit rays from 3 to 4 units out, aimed at points of [-1.3, 1.3]^3,
    so that some clip a corner of the box or miss it; with their box
    intervals."""
    o = rng.standard_normal((n, 3))
    o *= rng.uniform(3.0, 4.0, (n, 1)) / np.linalg.norm(o, axis=1, keepdims=True)
    d = rng.uniform(-1.3, 1.3, (n, 3)) - o
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    t_near, t_far = clip_to_box(o, d)
    return o, d, t_near, t_far


def density_scan(scene, o, d, t_near, t_far, points=8192):
    """Laplace density (N, points) on a dense even scan of each [t_near, t_far]."""
    t = t_near[:, None] + np.linspace(0.0, 1.0, points) * (t_far - t_near)[:, None]
    p = o[:, None, :] + t[:, :, None] * d[:, None, :]
    return laplace_density(scene.sdf(p), scene.beta_field(p))


def full_trace(scene, origins, dirs, t_near, t_far):
    """certified_empty as first written, without the early stop: a ray is
    dropped only at s <= c or after 24 queries."""
    c = DENSITY_ZERO_BETAS * scene.beta_max
    certified = np.zeros(len(t_near), dtype=bool)
    rays = np.arange(len(t_near))
    t = t_near
    for _ in range(24):
        s = scene.sdf(origins[rays] + t[:, None] * dirs[rays])
        t = t + (s - c)
        clear = s > c
        reached = clear & (t >= t_far[rays])
        certified[rays[reached]] = True
        rays, t = rays[clear & ~reached], t[clear & ~reached]
        if not rays.size:
            break
    return certified


class TestCertifiedEmpty:
    """certified_empty is a proof: no certified ray has nonzero density."""

    @pytest.mark.parametrize("name", SCENE_NAMES)
    def test_early_stop_certifies_the_rays_of_the_full_trace(self, monkeypatch, name):
        # dropping a ray at s <= 1.1c loses no certificate on the tight
        # scenes, and stops the rays that meet a surface early
        sc = make_scene(name, beta=0.0015)
        rays = camera_geometry(small_camera(32))
        want = full_trace(sc, *rays)
        queries = []
        sdf = sc.sdf
        monkeypatch.setattr(sc, "sdf", lambda p: (queries.append(len(p)), sdf(p))[1])
        got = certified_empty(sc, *rays)
        assert np.array_equal(got, want)
        assert sum(queries) / got.size < 8

    @pytest.mark.parametrize("name", SCENE_NAMES)
    @pytest.mark.parametrize("beta", [0.0015, None])
    def test_certified_rays_have_no_density(self, name, beta):
        sc = make_scene(name, beta=beta)
        o, d, t_near, t_far = random_box_rays(np.random.default_rng(20), 2048)
        rays = np.flatnonzero(certified_empty(sc, o, d, t_near, t_far))
        for lo in range(0, rays.size, 64):
            r = rays[lo:lo + 64]
            sigma = density_scan(sc, o[r], d[r], t_near[r], t_far[r])
            assert not sigma.any(), r[np.any(sigma, axis=1)]

    @pytest.mark.parametrize("betas", [30.0, 37.0])
    def test_ray_near_the_tight_sphere_is_not_certified(self, betas):
        # a ray passing `betas` beta above the unit sphere; the density is
        # nonzero on it, since both distances are below DENSITY_ZERO_BETAS
        sc = make_scene("sphere", beta=0.0015)
        o = np.array([[0.0, 1.0 + betas * 0.0015, 2.8]])
        d = np.array([[0.0, 0.0, -1.0]])
        t_near, t_far = clip_to_box(o, d)
        assert density_scan(sc, o, d, t_near, t_far).any()
        assert not certified_empty(sc, o, d, t_near, t_far).any()

    def test_rays_clear_of_the_tight_sphere_are_certified(self):
        # 0.2 and 0.3 above the unit sphere, and one ray that misses the box
        sc = make_scene("sphere", beta=0.0015)
        o = np.array([[0.0, y, 2.8] for y in (1.2, 1.3, -1.5)])
        d = np.tile([0.0, 0.0, -1.0], (3, 1))
        assert certified_empty(sc, o, d, *clip_to_box(o, d)).all()


class TestRenderProbe:
    @pytest.mark.parametrize("name,beta", [("two-spheres", 0.0015), ("textured-sphere", None)])
    def test_dense_weights_are_probe_weights_unshaded(self, name, beta):
        rec = RecordingScene.of(make_scene(name, beta=beta))
        cam = small_camera(16)
        weights = dense_weights(rec, cam, z_bins=48, workers=2)
        assert not rec.seen["radiance"]
        assert np.array_equal(weights, render_probe(rec, cam, z_bins=48).weights)

    def test_vacuum_probe_is_zeros(self):
        probe = render_probe(vacuum_scene(), small_camera(8), z_bins=16)
        np.testing.assert_array_equal(probe.weights, np.zeros((16, 8, 8)))
        np.testing.assert_array_equal(probe.image, np.zeros((8, 8, 3)))

    def test_weight_rows_sum_below_one(self):
        probe = render_probe(make_scene("two-spheres"), small_camera(16), z_bins=64)
        sums = probe.weights.sum(axis=0)
        assert np.all(sums <= 1.0 + 1e-6)

    def test_opaque_wall_argmax_bin(self):
        z = 128
        sc = make_scene("wall", beta=1e-3)
        cam = small_camera(16)
        probe = render_probe(sc, cam, z_bins=z)
        o, d, t_near, t_far = camera_geometry(cam)
        t_hit = (o[:, 2] - 0.0) / -d[:, 2]  # analytic plane intersection
        hit_bin = ((t_hit - t_near) / (t_far - t_near) * z).astype(int)
        arg = probe.weights.reshape(z, -1).argmax(axis=0)
        assert np.all(np.abs(arg - hit_bin) <= 1)
        center = probe.weights[:, 8, 8].argmax()
        assert abs(center - z // 2) <= 1

    def test_probe_cost_equivalence_arithmetic(self):
        # 192 bins at 128x128 cost the same as 12 per pixel at 512x512
        assert 192 * 128 * 128 == 12 * 512 * 512

    def test_samples_at_bin_midpoints(self):
        rec = RecordingScene.of(make_scene("sphere"))
        cam = small_camera(8)
        render_probe(rec, cam, z_bins=32)
        o, d, t_near, t_far = camera_geometry(cam)
        t = bin_midpoints(t_near, t_far, 32)
        np.testing.assert_allclose(t[:, 0] + t[:, -1], t_near + t_far, rtol=1e-15)
        width = ((t_far - t_near) / 32)[:, None]
        np.testing.assert_allclose(np.diff(t, axis=1) - width, 0.0, atol=1e-14)
        p = o[:, None, :] + t[:, :, None] * d[:, None, :]
        assert np.array_equal(np.concatenate(rec.seen["fields"]), p.reshape(-1, 3))


class TestOneEmptyRayRule:
    """Every renderer skips the rays certified_empty proves empty, and its
    output is that of rendering every ray, bit for bit."""

    @pytest.mark.parametrize("name", SCENE_NAMES)
    @pytest.mark.parametrize("beta", [0.0015, None])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_render_of_every_ray(self, monkeypatch, name, beta, workers):
        sc, cam = make_scene(name, beta=beta), small_camera(16)
        smp = sampler_samples(sc, 16)
        got = {k: fn(sc, cam, smp, workers) for k, fn in RENDERERS.items()}
        monkeypatch.setattr(render, "certified_empty", no_certificate)
        for k, fn in RENDERERS.items():
            for a, b in zip(rendered_arrays(got[k]), rendered_arrays(fn(sc, cam, smp, workers))):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), k

    def test_samples_past_t_far_are_rendered(self, monkeypatch):
        # a wide camera's outer rays meet the wall plane beyond their box
        # interval, which is empty; their samples there carry weight, so
        # render_full must certify the span the samples cover
        sc = make_scene("wall", beta=1e-3)
        cam = Camera(position=(0.0, 0.0, 2.8), look_at=(0.0, 0.0, 0.0),
                     up=(0.0, 1.0, 0.0), fov_y=2.0, height=8, width=8)
        o, d, t_near, t_far = camera_geometry(cam)
        t_hit = o[:, 2] / -d[:, 2]
        t = t_hit[:, None] + np.linspace(-0.05, 0.05, 16)
        samples = PixelSamples(8, 8, [(np.arange(64), t, np.full_like(t, 0.1 / 15))])
        beyond = t[:, 0] > t_far
        assert np.sum(beyond & certified_empty(sc, o, d, t_near, t_far)) >= 4
        got = render_full(sc, cam, samples)
        assert np.all(got.accumulated_opacity.ravel()[beyond] > 0.5)
        monkeypatch.setattr(render, "certified_empty", no_certificate)
        want = render_full(sc, cam, samples)
        for a, b in zip(rendered_arrays(got), rendered_arrays(want)):
            assert np.array_equal(a, b)


class TestRenderFull:
    def test_constant_beta_opaque_b_image(self):
        beta = 0.02
        sc = make_scene("sphere", beta=beta)
        cam = small_camera(8)
        out = render_uniform(sc, cam, 256, mode="midpoint")
        center = out.beta_image[4, 4]
        assert out.accumulated_opacity[4, 4] == pytest.approx(1.0, abs=1e-9)
        assert center == pytest.approx(beta, rel=1e-6)

    def test_background_pixel_zero(self):
        sc = make_scene("torus")
        cam = small_camera(16)
        out = render_uniform(sc, cam, 64, mode="midpoint")
        assert out.accumulated_opacity[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert out.beta_image[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_expected_depth_matches_analytic_intersection(self):
        sc = make_scene("sphere", beta=0.001)
        cam = small_camera(16)
        out = render_uniform(sc, cam, 512, mode="midpoint")
        o, d, t_near, t_far = camera_geometry(cam)
        k = 8 * 16 + 8
        t_hit = ray_sphere_hit(o[k], d[k], (0, 0, 0), 1.0)
        tol = 2.0 * (t_far[k] - t_near[k]) / 512
        assert abs(out.expected_depth[8, 8] - t_hit) <= tol

    def test_resolution_mismatch_rejected(self):
        sc = make_scene("sphere")
        cam = small_camera(8)
        samples = PixelSamples(4, 4, [(np.arange(16), np.full((16, 2), 2.0), None)])
        with pytest.raises(ValueError):
            render_full(sc, cam, samples)

    @pytest.mark.parametrize("bad", ["nan-position", "inf-position", "negative-delta"])
    def test_rejects_nonfinite_positions_and_negative_deltas(self, bad):
        sc = make_scene("sphere")
        t = np.array([[2.0, 2.5], [2.0, 2.5], [2.2, 2.9], [1.9, 3.0]])
        delta = np.full((4, 2), 0.1)
        if bad == "negative-delta":
            delta[3, 1] = -1e-9
            match = "nonnegative"
        else:
            t[1, 1] = np.nan if bad == "nan-position" else np.inf
            match = "non-finite"
        groups = [(np.arange(2), t[:2], delta[:2]), (np.arange(2, 4), t[2:], delta[2:])]
        with pytest.raises(ValueError, match=match):
            render_full(sc, small_camera(2), PixelSamples(2, 2, groups))
        # the same groups without the bad entry render
        t[1, 1], delta[3, 1] = 2.5, 0.1
        render_full(sc, small_camera(2), PixelSamples(2, 2, groups))

    def test_deterministic_and_worker_invariant(self):
        sc = make_scene("blended-union")
        cam = small_camera(24)
        a = render_uniform(sc, cam, 32, mode="stratified", seed=5, workers=1)
        b = render_uniform(sc, cam, 32, mode="stratified", seed=5, workers=3)
        assert np.array_equal(a.radiance, b.radiance)
        assert np.array_equal(a.expected_depth, b.expected_depth)
        c = render_uniform(sc, cam, 32, mode="stratified", seed=6, workers=1)
        assert not np.array_equal(a.radiance, c.radiance)

    def test_refinement_convergence_on_smooth_scene(self, rng):
        sc = make_scene("sphere")
        cam = small_camera(8)  # 64 rays
        truth = render_uniform(sc, cam, 4096, mode="midpoint")
        errs = []
        for n in (32, 64, 128, 256):
            out = render_uniform(sc, cam, n, mode="midpoint")
            errs.append(np.abs(out.radiance - truth.radiance).mean())
        assert errs[0] > errs[1] > errs[2] > errs[3]


class TestRenderReference:
    def test_vacuum_reference_is_black_and_finite(self):
        out = render_reference(vacuum_scene(), small_camera(8), total=64, seed=3)
        np.testing.assert_array_equal(out.radiance, np.zeros((8, 8, 3)))
        np.testing.assert_array_equal(out.accumulated_opacity, np.zeros((8, 8)))

    def test_importance_samples_concentrate_at_wall(self):
        z = 192
        sc = make_scene("wall", beta=2e-3)
        cam = small_camera(8)
        probe = render_probe(sc, cam, z_bins=z)
        o, d, t_near, t_far = camera_geometry(cam)
        pdf = normalize_pdf(probe.weights.reshape(z, -1).T)
        u = np.random.default_rng(0).random((64, z))
        t_fine = inverse_cdf_sample_grid(pdf, t_near, t_far, u)
        t_hit = (o[:, 2]) / -d[:, 2]
        hit_bin = (t_hit - t_near) / (t_far - t_near) * z
        fine_bin = (t_fine - t_near[:, None]) / (t_far - t_near)[:, None] * z
        within = np.abs(fine_bin - hit_bin[:, None]) <= 2.0
        assert within.mean() >= 0.90

    def test_reference_close_to_dense_render(self):
        sc = make_scene("two-spheres")
        cam = small_camera(16)
        ref = render_reference(sc, cam, total=384, seed=7)
        dense = render_uniform(sc, cam, 2048, mode="midpoint")
        err = np.abs(ref.radiance - dense.radiance).mean()
        assert err < 2e-3

    @pytest.mark.parametrize("name", SCENE_NAMES)
    def test_reference_agrees_with_converged_integral(self, name):
        # the PSNR oracle must match uniform-4096 (itself converged) to the
        # same > 99.5 dB bound as acceptance criterion C2, at 1/64 the pixels
        sc = make_scene(name)
        cam = small_camera(8)
        ref = render_reference(sc, cam, total=384, seed=1)
        dense = render_uniform(sc, cam, 4096, mode="stratified", seed=2)
        assert psnr(ref.radiance, dense.radiance) > 99.5
