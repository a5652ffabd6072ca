import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import small_camera, vacuum_scene
from volsampler import bench
from volsampler.bench import (CSV_HEADER, LIFT_BLUR_SIGMA, MetricRow, Pipeline,
                              _probe_lift_mask, adaptive_pipeline_render,
                              method_samples, parent_rows, prepare_proposals,
                              robust_samples, rows_to_csv, run_bench)
from volsampler.config import Config
from volsampler.metrics import psnr, worst_percentile_psnr
from volsampler.proposal import ProposalNet, blur_bins
from volsampler.render import (PixelSamples, bin_midpoints, render_full,
                               render_reference, render_uniform)
from volsampler.sampling import (adaptive_score_grid, derive_seed,
                                 nucleus_support_grid, normalize_pdf,
                                 stratified_u_block)
from volsampler.scenes import make_scene


def tiny_spec(config=(), **fields):
    """Pipeline from the tiny bench config plus `config` overrides, with
    `fields` replaced afterwards."""
    cfg = Config.load(None, overrides={
        "scene.beta": "0.004", "camera.height": "16", "camera.width": "16",
        "bench.methods": "stratified,robust", "bench.spp": "2,4",
        "bench.trials": "1", "render.z_bins": "48", "render.reference_spp": "96",
        **dict(config)})
    return replace(Pipeline.from_config(cfg, seed=3), **fields)


class TestCsv:
    def test_header_schema(self):
        assert CSV_HEADER == "method,spp,trial,psnr,worst10,worst1,worst01,ms"

    def test_decimal_points_locale_free(self):
        text = rows_to_csv([MetricRow("robust", 8, 0, 31.5, 21.5, 14.5, 9.5, 1.25)])
        assert "," in text and ";" not in text
        assert "31.500000" in text


class TestBenchSpecValidation:
    def test_unknown_method(self):
        with pytest.raises(Exception):
            tiny_spec({"bench.methods": "sorcery"})

    def test_bad_spp(self):
        with pytest.raises(Exception):
            tiny_spec({"bench.spp": "0"})

    def test_bad_trials(self):
        with pytest.raises(Exception):
            tiny_spec({"bench.trials": "0"})


class TestRunBench:
    def test_rows_complete_and_outputs_written(self, tmp_path):
        spec = tiny_spec()
        rows, csv_text = run_bench(spec, out_dir=tmp_path)
        assert len(rows) == 2 * 2
        assert {r.method for r in rows} == {"stratified", "robust"}
        assert (tmp_path / "bench.csv").read_text() == csv_text
        assert (tmp_path / "two-spheres_robust_spp2.ppm").exists()
        assert (tmp_path / "two-spheres_robust_spp2.pfm").exists()
        assert (tmp_path / "reference.pfm").exists()
        for r in rows:
            assert np.isfinite(r.psnr) and r.psnr > 5.0
            assert r.worst01 <= r.worst1 <= r.worst10 <= r.psnr + 1e-9

    def test_same_seed_identical_csv(self):
        _, a = run_bench(tiny_spec(deterministic=True), out_dir=None)
        _, b = run_bench(tiny_spec(deterministic=True), out_dir=None)
        assert a == b

    def test_worker_count_does_not_change_csv(self):
        _, a = run_bench(tiny_spec(deterministic=True, workers=1), out_dir=None)
        _, b = run_bench(tiny_spec(deterministic=True, workers=4), out_dir=None)
        assert a == b

    def test_deterministic_zeroes_timing(self):
        rows, _ = run_bench(tiny_spec(deterministic=True), out_dir=None)
        assert all(r.ms == 0.0 for r in rows)
        rows, _ = run_bench(tiny_spec(), out_dir=None)
        assert any(r.ms > 0.0 for r in rows)

    def test_identical_estimator_hits_cap(self):
        # same estimator, same seed -> identical images -> capped PSNR
        sc = make_scene("sphere")
        cam = small_camera(8)
        a = render_uniform(sc, cam, 32, seed=9)
        b = render_uniform(sc, cam, 32, seed=9)
        assert psnr(a.radiance, b.radiance) == 100.0

    def test_wall_time_scales_roughly_linearly_in_spp(self):
        sc = make_scene("sphere")
        cam = small_camera(48)

        def timed(spp):
            t0 = time.perf_counter()
            render_uniform(sc, cam, spp, workers=1)
            return time.perf_counter() - t0

        timed(64)  # warm caches
        t64 = min(timed(64) for _ in range(3))
        t256 = min(timed(256) for _ in range(3))
        per_sample_ratio = (t256 / 256.0) / (t64 / 64.0)
        assert per_sample_ratio <= 2.0  # linear scaling within 2x
        assert t256 > t64  # more samples cannot be free


class TestProposalsAndMethods:
    def test_probe_lift_pdf_rows_normalized(self):
        sc = make_scene("two-spheres", beta=0.004)
        prop = prepare_proposals(tiny_spec(scene=sc, camera=small_camera(16)))
        sums = prop.pdf.sum(axis=1)
        hit = sums > 0
        np.testing.assert_allclose(sums[hit], 1.0, atol=1e-9)
        assert prop.pdf.shape == (256, 48)

    def test_oracle_full_matches_resolution(self):
        sc = make_scene("sphere")
        prop = prepare_proposals(tiny_spec(scene=sc, camera=small_camera(16),
                                           proposal_source="oracle-full"))
        assert prop.pdf.shape == (256, 48)

    def test_unknown_source_rejected(self):
        with pytest.raises(Exception):
            prepare_proposals(tiny_spec(scene=make_scene("sphere"),
                                        camera=small_camera(16),
                                        proposal_source="tea-leaves"))

    def test_method_samples_shapes_and_render(self):
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        pipe = tiny_spec(scene=sc, camera=cam)
        prop = prepare_proposals(pipe)
        for m in ("unstratified", "stratified", "robust"):
            samples = method_samples(m, prop, 6, 4, pipe)
            out = render_full(sc, cam, samples)
            assert np.all(np.isfinite(out.radiance))
            total = sum(len(idx) for idx, _, _ in samples.groups)
            assert total == 256

    @pytest.mark.parametrize("source", ["probe-lift", "oracle-full", "checkpoint"])
    def test_idle_pixels_take_no_samples(self, source):
        # a pixel whose proposal row is all-zero or whose parent probe ray
        # has no opacity is idle: one zero-width group, rendered as exact 0
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        pipe = tiny_spec(scene=sc, camera=cam, proposal_source=source)
        net = ProposalNet(z_bins=48, hidden=4, seed=0) if source == "checkpoint" else None
        prop = prepare_proposals(pipe, net=net)
        parent_acc = prop.probe.weights.sum(axis=0).ravel()[parent_rows(16, 16)]
        idle = (prop.pdf.sum(axis=1) == 0) | (parent_acc == 0)
        assert idle.any() and not idle.all()  # corners miss both spheres
        spp_map = np.where(np.arange(256) % 3 == 0, 6, 4).astype(np.int64)
        samples = robust_samples(prop, spp_map, 4, pipe)

        seen = np.zeros(256, dtype=np.int64)
        for rows, t, delta in samples.groups:
            assert rows.size > 0 and t.shape[0] == rows.size
            assert np.all(idle[rows] == (t.shape[1] == 0))
            seen[rows] += 1
        assert np.all(seen == 1)
        (rows, t, delta), = [g for g in samples.groups if g[1].shape[1] == 0]
        assert np.array_equal(rows, np.flatnonzero(idle))
        assert t.shape == (idle.sum(), 0) and delta is None

        out = render_full(sc, cam, samples)
        for img in (out.radiance, out.beta_image, out.expected_depth,
                    out.accumulated_opacity):
            assert np.all(img.reshape(256, -1)[idle] == 0.0)

    def test_adaptive_budget_grouping(self):
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        pipe = tiny_spec(scene=sc, camera=cam, merge_probe=False)
        prop = prepare_proposals(pipe)
        scores = adaptive_score_grid(prop.pdf, 8)
        spp_map = np.where(scores > np.median(scores), 8, 4).astype(np.int64)
        samples = robust_samples(prop, spp_map, 4, pipe)
        for idx, t, delta in samples.groups:
            assert t.shape[0] == len(idx)
        out = render_full(sc, cam, samples)
        assert np.all(np.isfinite(out.radiance))

    @pytest.mark.parametrize("merge", [False, True], ids=["merge-off", "merge-on"])
    def test_every_delta_is_the_gap_clipped_to_a_bin(self, merge):
        # robust_samples sets each delta once, after the merge: the gap to
        # the next sample (the last one's to t_far), at most one bin width
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        pipe = tiny_spec(scene=sc, camera=cam, merge_probe=merge)
        prop = prepare_proposals(pipe)
        spp_map = np.where(np.arange(256) % 3 == 0, 12, 3).astype(np.int64)
        samples = robust_samples(prop, spp_map, 4, pipe)
        width = (prop.t_far - prop.t_near) / 48
        clipped = unclipped = 0
        for rows, t, delta in samples.groups:
            if delta is None:  # idle pixels take no samples
                continue
            if not merge:
                assert np.all(t.shape[1] == spp_map[rows])
            gap = np.hstack([np.diff(t, axis=1), prop.t_far[rows, None] - t[:, -1:]])
            cap = width[rows, None]
            assert np.array_equal(delta, np.minimum(gap, cap))
            clipped += np.count_nonzero(gap > cap)
            unclipped += np.count_nonzero(gap < cap)
        assert clipped > 0 and unclipped > 0

    def test_merge_probe_appends_parent_coarse_positions(self):
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        pipe = tiny_spec(scene=sc, camera=cam)
        prop = prepare_proposals(pipe)
        plain = robust_samples(prop, np.full(256, 6, dtype=np.int64), 4,
                               replace(pipe, merge_probe=False))
        merged = robust_samples(prop, np.full(256, 6, dtype=np.int64), 4,
                                replace(pipe, merge_probe=True))
        n_plain = max(t.shape[1] for _, t, _ in plain.groups)
        n_merged = max(t.shape[1] for _, t, _ in merged.groups)
        assert n_merged > n_plain

    def test_merge_lifts_parent_probe_midpoints(self):
        # every sample the merge adds is one of its parent probe ray's
        # bin_midpoints, clipped to the pixel's own interval
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        pipe = tiny_spec(scene=sc, camera=cam)
        prop = prepare_proposals(pipe)
        spp_map = np.full(256, 6, dtype=np.int64)
        plain = robust_samples(prop, spp_map, 4, replace(pipe, merge_probe=False))
        merged = robust_samples(prop, spp_map, 4, replace(pipe, merge_probe=True))
        own = {int(r): t for rows, t, _ in plain.groups for r, t in zip(rows, t)}
        mids = bin_midpoints(prop.probe.t_near.ravel(), prop.probe.t_far.ravel(),
                             prop.pdf.shape[1])
        parents = parent_rows(16, 16)
        lifted = 0
        for rows, t, _ in merged.groups:
            for r, row_t in zip(rows, t):
                added = list(row_t)
                for v in own[int(r)]:
                    added.remove(v)
                allowed = np.clip(mids[parents[r]], prop.t_near[r], prop.t_far[r])
                assert np.all(np.isin(added, allowed)), r
                lifted += len(added)
        assert lifted > 0


def _reference_lift_bins(weights, k=16, own=8, floor=5e-3):
    """The probe-lift bin choice as a priority loop: per probe pixel, its own
    top `own` bins at or above the floor first, then the 3x3-pooled top k at
    or above the floor, skipping bins already taken, until k are taken."""
    z, h, w = weights.shape
    pdf = normalize_pdf(weights.reshape(z, -1).T).reshape(h, w, z)
    out = []
    for y in range(h):
        for x in range(w):
            own_p = pdf[y, x]
            pool = pdf[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2].max(axis=(0, 1))
            cand = [b for b in np.argsort(-own_p, kind="stable")[:own] if own_p[b] >= floor]
            cand += [b for b in np.argsort(-pool, kind="stable")[:k] if pool[b] >= floor]
            taken = []
            for b in cand:
                if b not in taken and len(taken) < k:
                    taken.append(b)
            out.append(sorted(taken))
    return out


def _random_probe_weights(seed):
    """Small quantized probe weight grids: many ties, all-zero pixels, and
    pixels whose spike pushes the rest of their bins below the floor."""
    rng = np.random.default_rng(seed)
    z = int(rng.choice([12, 24, 48]))
    h, w = (int(v) for v in rng.integers(1, 7, size=2))
    weights = rng.integers(0, 4, size=(z, h, w)).astype(float)
    weights *= rng.random((z, h, w)) < rng.uniform(0.05, 0.6)
    weights[:, rng.random((h, w)) < 0.2] = 0.0
    weights[int(rng.integers(z)), rng.random((h, w)) < 0.3] += 400.0
    return weights


class TestProbeLift:
    def test_mask_matches_priority_loop(self):
        seen = {"all-zero": 0, "few above floor": 0, "full": 0}
        for seed in range(40):
            weights = _random_probe_weights(seed)
            mask = _probe_lift_mask(weights)
            want = _reference_lift_bins(weights)
            assert [list(np.flatnonzero(m)) for m in mask] == want, seed
            z = weights.shape[0]
            seen["all-zero"] += int(np.sum(weights.reshape(z, -1).sum(axis=0) == 0))
            seen["few above floor"] += sum(0 < len(b) < 16 for b in want)
            seen["full"] += sum(len(b) == 16 for b in want)
        assert all(v > 0 for v in seen.values()), seen

    @pytest.mark.parametrize("source", ["probe-lift", "oracle-full", "checkpoint"])
    def test_merged_width_is_budget_plus_parent_lift(self, source):
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        pipe = tiny_spec(scene=sc, camera=cam, proposal_source=source)
        net = ProposalNet(z_bins=48, hidden=4, seed=0) if source == "checkpoint" else None
        prop = prepare_proposals(pipe, net=net)
        spp_map = np.where(np.arange(256) % 3 == 0, 6, 4).astype(np.int64)
        samples = robust_samples(prop, spp_map, 4, pipe)
        # the parent's lifted bins whose probe sample lies before the pixel's
        # t_far; one past it would sit at t_far with delta 0
        parents = parent_rows(16, 16)
        mask = _probe_lift_mask(prop.probe.weights)[parents]
        mids = bin_midpoints(prop.probe.t_near.ravel(), prop.probe.t_far.ravel(), 48)
        lifted = np.sum(mask & (mids[parents] < prop.t_far[:, None]), axis=1)
        assert np.any(lifted < 16)  # rows the old layout padded at t_far

        padded = []
        for rows, t, delta in samples.groups:
            if delta is None:  # idle pixels take no samples and merge nothing
                assert t.shape == (rows.size, 0)
                padded.append((rows, t, delta))
                continue
            assert np.all(t.shape[1] == spp_map[rows] + lifted[rows])
            t_far = prop.t_far[rows, None]
            assert not np.any((t == t_far) & (delta == 0.0))
            pad = 16 - (t.shape[1] - spp_map[rows[0]])
            padded.append((rows, np.hstack([t, np.repeat(t_far, pad, axis=1)]),
                           np.hstack([delta, np.zeros((rows.size, pad))])))
        # the old layout's unused slots (at t_far, delta 0) weigh nothing
        a = render_full(sc, cam, samples)
        b = render_full(sc, cam, PixelSamples(16, 16, padded))
        assert np.array_equal(a.radiance, b.radiance)


class TestAdaptivePipeline:
    def setup_pipe(self, seed=13):
        from volsampler.bench import adaptive_pipeline_render
        from volsampler.sampling import SampleBudget

        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        prop = prepare_proposals(tiny_spec(scene=sc, camera=cam))
        return sc, cam, prop, adaptive_pipeline_render, SampleBudget

    def test_budget_mean_and_determinism(self):
        sc, cam, prop, pipeline, SampleBudget = self.setup_pipe()
        pipe = tiny_spec(scene=sc, camera=cam, budget=SampleBudget(4, 8, 0.25))
        out1, spp1 = pipeline(replace(pipe, workers=1), prop)
        out2, spp2 = pipeline(replace(pipe, workers=3), prop)
        assert spp1.mean() == pytest.approx(4 + 0.25 * 4, abs=1e-12)
        assert np.array_equal(spp1, spp2)
        assert np.array_equal(out1.radiance, out2.radiance)

    def test_coverage_mask_excludes_empty_regions(self):
        from volsampler.bench import coverage_mask

        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(32)  # probe 8x8: corners sit >1 parent from geometry
        prop = prepare_proposals(tiny_spec(scene=sc, camera=cam))
        mask = coverage_mask(prop, 32, 32).reshape(32, 32)
        assert mask.any() and not mask.all()
        assert mask[16, 16]
        # a pixel whose own parent carries opacity is always kept
        acc = prop.probe.weights.sum(axis=0)
        lifted = np.repeat(np.repeat(acc > 0.05, 4, 0), 4, 1)
        assert np.all(mask[lifted])

    def test_idle_pixels_lose_nothing_the_uniform_rule_rendered(self):
        # the rule idle pixels once took, as the reference: stratified
        # positions over [t_near, t_far] from stream 29 at each pixel's
        # budget, with the default deltas
        pipe = Pipeline.from_config(Config.load(None, overrides={
            "scene.name": "two-spheres", "scene.beta": "0.0015",
            "camera.height": "64", "camera.width": "64"}), seed=3)
        assert pipe.merge_probe and pipe.proposal_source == "probe-lift"
        prop = prepare_proposals(pipe)
        out, spp_map = adaptive_pipeline_render(pipe, prop)
        spp = spp_map.ravel()
        samples = robust_samples(prop, spp, pipe.seed, pipe)
        groups = [g for g in samples.groups if g[1].shape[1]]
        (idle_pix, _, _), = [g for g in samples.groups if not g[1].shape[1]]
        for s in np.unique(spp[idle_pix]):
            pix = idle_pix[spp[idle_pix] == s]
            u = stratified_u_block(spp.size, int(s), pipe.seed, 29)[pix]
            t = prop.t_near[pix, None] + u * (prop.t_far - prop.t_near)[pix, None]
            groups.append((pix, t, None))
        old = render_full(pipe.scene, pipe.camera, PixelSamples(64, 64, groups))

        idle = np.zeros(spp.size, dtype=bool)
        idle[idle_pix] = True
        a, b = out.radiance.reshape(-1, 3), old.radiance.reshape(-1, 3)
        assert np.array_equal(a[~idle], b[~idle])
        assert np.any(b[idle] > 0.0)  # the uniform rule found something
        assert np.max(np.abs(a[idle] - b[idle])) <= 2e-6
        ref = render_reference(pipe.scene, pipe.camera, 384,
                               seed=derive_seed(pipe.seed, 999)).radiance
        assert abs(psnr(out.radiance, ref) - psnr(old.radiance, ref)) <= 1e-9
        assert abs(worst_percentile_psnr(out.radiance, ref, 1.0)
                   - worst_percentile_psnr(old.radiance, ref, 1.0)) <= 1e-9


def _per_pixel(prop):
    """The same field with one row per pixel and the identity index."""
    return replace(prop, rows=prop.pdf, index=np.arange(prop.index.size))


def _groups_equal(a, b):
    assert len(a.groups) == len(b.groups)
    for (ra, ta, da), (rb, tb, db) in zip(a.groups, b.groups):
        assert np.array_equal(ra, rb) and np.array_equal(ta, tb)
        assert (da is None) == (db is None)
        assert da is None or np.array_equal(da, db)


class TestSharedRows:
    """Probe-lift children share their parent's proposal row; the row stages
    run once per distinct row and must give what running them per pixel
    gives, bit for bit."""

    @pytest.mark.parametrize("scene_name,beta", [("two-spheres", 0.004),
                                                 ("textured-sphere", None)])
    @pytest.mark.parametrize("merge", [False, True], ids=["merge-off", "merge-on"])
    def test_robust_samples_equal_per_pixel_rows(self, scene_name, beta, merge):
        cam = small_camera(16)
        pipe = tiny_spec(scene=make_scene(scene_name, beta=beta), camera=cam,
                         merge_probe=merge)
        shared = prepare_proposals(pipe)
        expanded = _per_pixel(shared)
        assert len(shared.rows) == 16 < len(expanded.rows) == 256
        scores = adaptive_score_grid(shared.pdf, pipe.budget.base_spp)
        adaptive = np.where(scores > np.median(scores), 8, 3).astype(np.int64)
        for spp_map in (np.full(256, 4, dtype=np.int64), adaptive):
            _groups_equal(robust_samples(shared, spp_map, 4, pipe),
                          robust_samples(expanded, spp_map, 4, pipe))
        # supports wider than the flat budget are thinned
        support = nucleus_support_grid(shared.pdf, pipe.tau)
        fg = shared.pdf.sum(axis=1) > 0
        assert np.any(support[fg].sum(axis=1) > 4)

    def test_adaptive_render_equal_per_pixel_rows(self):
        cam = small_camera(16)
        pipe = tiny_spec(scene=make_scene("textured-sphere"), camera=cam)
        shared = prepare_proposals(pipe)
        a, spp_a = adaptive_pipeline_render(pipe, shared)
        b, spp_b = adaptive_pipeline_render(pipe, _per_pixel(shared))
        assert np.array_equal(spp_a, spp_b)
        assert np.array_equal(a.radiance, b.radiance)

    def test_probe_lift_holds_one_row_per_probe_pixel(self):
        cam = small_camera(32)
        pipe = tiny_spec(scene=make_scene("two-spheres", beta=0.004), camera=cam)
        prop = prepare_proposals(pipe)
        assert prop.rows.shape == (8 * 8, 48) and prop.rows.flags.c_contiguous
        assert np.array_equal(prop.index, parent_rows(32, 32))
        blurred = blur_bins(prop.probe.weights.reshape(48, -1), LIFT_BLUR_SIGMA)
        want = normalize_pdf(blurred.T)[parent_rows(32, 32)]
        assert prop.pdf.tobytes() == want.tobytes()

    @pytest.mark.parametrize("source", ["oracle-full"])
    def test_other_sources_hold_one_row_per_pixel(self, source):
        cam = small_camera(16)
        pipe = tiny_spec(scene=make_scene("two-spheres", beta=0.004), camera=cam,
                         proposal_source=source)
        prop = prepare_proposals(pipe)
        assert prop.rows.shape == (256, 48)
        assert np.array_equal(prop.index, np.arange(256))

    def test_checkpoint_holds_live_rows_and_one_uniform_row(self):
        # one row per live pixel (parent probe ray with opacity), in raster
        # order, then the uniform row every idle pixel shares
        cam = small_camera(16)
        pipe = tiny_spec(scene=make_scene("two-spheres", beta=0.004), camera=cam,
                         proposal_source="checkpoint")
        net = ProposalNet(z_bins=48, hidden=4, seed=0)
        prop = prepare_proposals(pipe, net=net)
        live = prop.probe.weights.sum(axis=0).ravel()[parent_rows(16, 16)] > 0.0
        n_live = int(live.sum())
        assert 0 < n_live < 256
        assert prop.rows.shape == (n_live + 1, 48) and prop.rows.flags.c_contiguous
        want = np.full(256, n_live)
        want[live] = np.arange(n_live)
        assert np.array_equal(prop.index, want)
        assert np.all(prop.rows[n_live] == 1.0 / 48)
        rows, index = net.predict(prop.probe, shared=True)
        assert rows.tobytes() == prop.rows.tobytes() and np.array_equal(index, want)

    def test_probe_with_no_live_pixel_renders_black(self):
        cam = small_camera(16)
        pipe = tiny_spec(scene=vacuum_scene(), camera=cam, proposal_source="checkpoint")
        prop = prepare_proposals(pipe, net=ProposalNet(z_bins=48, hidden=4, seed=0))
        assert prop.rows.shape == (1, 48)
        assert np.array_equal(prop.index, np.zeros(256, dtype=prop.index.dtype))
        out, _ = adaptive_pipeline_render(pipe, prop)
        assert np.all(out.radiance == 0.0) and np.all(out.accumulated_opacity == 0.0)

    def test_nucleus_returns_one_mask_row_per_pixel(self, monkeypatch):
        # perfbench's trace hook indexes the returned masks with a per-pixel
        # coverage mask, so robust_samples must get back (N, Z)
        seen = []

        def recording(*args, **kwargs):
            out = nucleus_support_grid(*args, **kwargs)
            seen.append(out)
            return out

        monkeypatch.setattr(bench, "nucleus_support_grid", recording)
        cam = small_camera(16)
        pipe = tiny_spec(scene=make_scene("two-spheres", beta=0.004), camera=cam)
        prop = prepare_proposals(pipe)
        robust_samples(prop, np.full(256, 4, dtype=np.int64), 4, pipe)
        assert len(prop.rows) == 16 and len(seen) == 1
        assert seen[0].shape == (256, 48)
        assert np.array_equal(seen[0], nucleus_support_grid(prop.pdf, pipe.tau))
