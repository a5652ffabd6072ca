import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import small_camera
from volsampler.bench import (CSV_HEADER, MetricRow, Pipeline, method_samples,
                              parse_csv, prepare_proposals, robust_samples,
                              rows_to_csv, run_bench)
from volsampler.config import Config
from volsampler.metrics import psnr
from volsampler.render import render_full, render_uniform
from volsampler.sampling import adaptive_score_grid
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
    def test_round_trip(self):
        rows = [MetricRow("robust", 8, 0, 31.25, 21.5, 14.125, 9.0625, 12.5),
                MetricRow("stratified", 4, 2, 28.0, 20.0, 13.0, 8.0, 0.0)]
        assert parse_csv(rows_to_csv(rows)) == rows

    def test_header_schema(self):
        assert CSV_HEADER == "method,spp,trial,psnr,worst10,worst1,worst01,ms"

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            parse_csv("method,spp\nrobust,8\n")

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
        prop = prepare_proposals(tiny_spec(scene=sc, camera=cam))
        for m in ("unstratified", "stratified", "robust"):
            samples = method_samples(m, prop, 6, seed=4, height=16, width=16)
            out = render_full(sc, cam, samples)
            assert np.all(np.isfinite(out.radiance))
            total = sum(len(idx) for idx, _, _ in samples.groups)
            assert total == 256

    def test_background_rows_fall_back_to_uniform(self):
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        prop = prepare_proposals(tiny_spec(scene=sc, camera=cam))
        bg = np.flatnonzero(prop.pdf.sum(axis=1) == 0)
        assert bg.size > 0  # corners miss both spheres
        samples = method_samples("robust", prop, 4, seed=4, height=16, width=16)
        covered = np.concatenate([idx for idx, _, _ in samples.groups])
        assert np.array_equal(np.sort(covered), np.arange(256))

    def test_adaptive_budget_grouping(self):
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        prop = prepare_proposals(tiny_spec(scene=sc, camera=cam))
        scores = adaptive_score_grid(prop.pdf, 8)
        spp_map = np.where(scores > np.median(scores), 8, 4).astype(np.int64)
        samples = robust_samples(prop, spp_map, seed=4, height=16, width=16)
        for idx, t, delta in samples.groups:
            assert t.shape[0] == len(idx)
        out = render_full(sc, cam, samples)
        assert np.all(np.isfinite(out.radiance))

    def test_merge_probe_appends_parent_coarse_positions(self):
        sc = make_scene("two-spheres", beta=0.004)
        cam = small_camera(16)
        prop = prepare_proposals(tiny_spec(scene=sc, camera=cam))
        plain = robust_samples(prop, np.full(256, 6, dtype=np.int64), 4,
                               height=16, width=16, merge_probe=False)
        merged = robust_samples(prop, np.full(256, 6, dtype=np.int64), 4,
                                height=16, width=16, merge_probe=True)
        n_plain = max(t.shape[1] for _, t, _ in plain.groups)
        n_merged = max(t.shape[1] for _, t, _ in merged.groups)
        assert n_merged > n_plain


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
