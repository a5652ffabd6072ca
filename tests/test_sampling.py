import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volsampler.sampling import (SampleBudget, adaptive_score_grid,
                                 allocate_budgets, block_uniforms,
                                 budget_sample_grid, derive_seed,
                                 inverse_cdf_sample_edges,
                                 inverse_cdf_sample_grid, normalize_pdf,
                                 nucleus_support_grid, stratified_u_block,
                                 upsample_nearest)


def brute_force_min_nucleus(probs, tau):
    """Exhaustive subset search: smallest cardinality with mass >= tau."""
    z = len(probs)
    best = None
    for k in range(1, z + 1):
        for subset in itertools.combinations(range(z), k):
            if probs[list(subset)].sum() >= tau - 1e-12:
                return k, subset
    return z, tuple(range(z))


class TestStratifiedVariates:
    def test_single(self):
        u = stratified_u_block(1, 1, seed=0)[0]
        assert u.shape == (1,) and 0.0 <= u[0] < 1.0

    def test_zero_offsets_give_stratum_left_edges(self):
        # the block's uniforms are the offsets inside each stratum
        u = stratified_u_block(1, 4, seed=3, stream=5)[0]
        xi = block_uniforms(3, 5, (1, 4))[0]
        np.testing.assert_allclose(u - xi / 4, [0.0, 0.25, 0.5, 0.75], atol=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            stratified_u_block(1, 0, seed=0)

    @given(st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_sorted_within_strata(self, n):
        u = stratified_u_block(1, n, seed=0)[0]
        assert np.all(np.diff(u) > 0) if n > 1 else True
        k = np.arange(n)
        assert np.all(u >= k / n) and np.all(u < (k + 1) / n)

    def test_variance_reduction_for_mean_estimator(self):
        # estimating integral of t over [0,1): 10000 trials, n=8
        rng = np.random.default_rng(42)
        n, trials = 8, 10000
        strat = np.array([(np.arange(n) + rng.random(n)).mean() / n
                          for _ in range(trials)])
        plain = rng.random((trials, n)).mean(axis=1)
        assert strat.var() < plain.var()


class TestInverseCdf:
    def test_identity_cdf(self):
        t = inverse_cdf_sample_grid(np.full((1, 4), 0.25), np.zeros(1), np.ones(1),
                                    np.array([[0.5]]))
        assert t[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_one_hot_lands_in_bin(self, rng):
        p = np.zeros((1, 10))
        p[0, 6] = 1.0
        t = inverse_cdf_sample_grid(p, np.array([2.0]), np.array([4.0]),
                                    rng.random((1, 64)))
        e = np.linspace(2.0, 4.0, 11)
        assert np.all(t >= e[6]) and np.all(t <= e[7])

    def test_two_bin_closed_form(self):
        # pdf (0.25, 0.75) over [0,1]; CDF at 0.5 -> t = 0.5 + (0.25/0.75)*0.5
        t = inverse_cdf_sample_grid(np.array([[0.25, 0.75]]), np.zeros(1), np.ones(1),
                                    np.array([[0.5]]))
        assert t[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_zero_pdf_uniform_fallback(self):
        u = np.array([0.0, 0.25, 0.5, 0.75])
        t = inverse_cdf_sample_grid(np.zeros((1, 8)), np.array([1.0]), np.array([3.0]),
                                    u[None])
        np.testing.assert_allclose(t[0], 1.0 + 2.0 * u, atol=1e-12)

    def test_output_sorted(self, rng):
        t = inverse_cdf_sample_grid(rng.random((1, 16)), np.zeros(1), np.ones(1),
                                    rng.random((1, 32)))
        assert np.all(np.diff(t[0]) >= 0)

    def test_histogram_matches_pdf_multinomial(self):
        z, n = 12, 1_000_000
        rng = np.random.default_rng(9)
        p = rng.random(z)
        p /= p.sum()
        t = inverse_cdf_sample_grid(p[None], np.zeros(1), np.ones(1),
                                    rng.random((1, n)))
        counts = np.histogram(t[0], bins=np.linspace(0.0, 1.0, z + 1))[0]
        sd = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3.0 * sd + 1.0)

    def test_grid_matches_single(self, rng):
        # each row of a batch samples as it would alone
        z = 24
        p = rng.random((5, z))
        t_near = np.array([0.0, 1.0, 2.0, 0.5, 0.1])
        t_far = t_near + np.array([1.0, 2.0, 0.5, 1.5, 3.0])
        u = rng.random((5, 7))
        grid = inverse_cdf_sample_grid(p, t_near, t_far, u)
        for i in range(5):
            single = inverse_cdf_sample_grid(p[i:i + 1], t_near[i:i + 1],
                                             t_far[i:i + 1], u[i:i + 1])[0]
            np.testing.assert_allclose(grid[i], single, atol=1e-12)

    def test_edges_place_mass_in_its_own_interval(self, rng):
        # uneven intervals: all mass on [0.3, 0.35] must sample only there,
        # uniformly within it
        edges = np.array([[0.0, 0.3, 0.35, 1.0]])
        p = np.array([[0.0, 1.0, 0.0]])
        t = inverse_cdf_sample_edges(p, edges, rng.random((1, 4000)))
        assert t.min() >= 0.3 and t.max() <= 0.35
        assert abs(t.mean() - 0.325) < 1e-3


class TestNucleusFilter:
    def test_spec_example(self):
        p = np.array([0.5, 0.3, 0.19, 0.01])
        mask = nucleus_support_grid(p[None], tau=0.98)
        assert set(np.flatnonzero(mask[0]).tolist()) == {0, 1, 2}
        # sampled uniformly: a budget of 3 puts one sample on each kept bin
        t, _ = budget_sample_grid(mask, p[None], 3, np.zeros(1), np.ones(1),
                                  np.full((1, 3), 0.5))
        counts = np.histogram(t[0], bins=np.linspace(0.0, 1.0, 5))[0]
        np.testing.assert_array_equal(counts, [1, 1, 1, 0])

    def test_one_hot(self):
        p = np.zeros(16)
        p[11] = 1.0
        mask = nucleus_support_grid(p[None])[0]
        assert np.flatnonzero(mask).tolist() == [11]

    def test_uniform_takes_ceil_tau_z(self):
        for z in (10, 50, 192):
            mask = nucleus_support_grid(np.full((1, z), 1.0 / z), tau=0.98)[0]
            assert mask.sum() == int(np.ceil(0.98 * z))

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            nucleus_support_grid(np.full((1, 4), 0.25), tau=0.0)
        with pytest.raises(ValueError):
            nucleus_support_grid(np.full((1, 4), 0.25), tau=1.5)

    @pytest.mark.parametrize("seed", range(6))
    def test_minimality_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        z = int(rng.integers(4, 13))
        p = rng.random(z) ** 2
        p /= p.sum()
        tau = float(rng.uniform(0.5, 0.99))
        mask = nucleus_support_grid(p[None], tau)[0]
        k_min, _ = brute_force_min_nucleus(p, tau)
        assert mask.sum() == k_min
        assert p[mask].sum() >= tau - 1e-9

    def test_tie_break_prefers_lower_index(self):
        mask = nucleus_support_grid(np.full((1, 4), 0.25), tau=0.5)[0]
        assert np.flatnonzero(mask).tolist() == [0, 1]


def _bin_counts(t, z):
    return np.histogram(t, bins=np.linspace(0.0, 1.0, z + 1))[0]


class TestBudgetSampling:
    def test_allocation_hand_case(self, rng):
        # s=10 over c=4 strata: floor gives 2 each, the 2 extras go to the
        # two largest-phat support bins -> counts (3,3,2,2) by phat rank
        phat = np.array([[0, 0.4, 0.3, 0, 0.2, 0.1, 0, 0]])
        t, delta = budget_sample_grid(phat > 0, phat, 10, np.zeros(1), np.ones(1),
                                      rng.random((1, 10)))
        np.testing.assert_array_equal(_bin_counts(t[0], 8), [0, 3, 3, 0, 2, 2, 0, 0])

    def test_one_sample_per_stratum_when_equal(self, rng):
        phat = np.zeros((1, 8))
        phat[0, [0, 3, 7]] = 1 / 3
        t, _ = budget_sample_grid(phat > 0, phat, 3, np.zeros(1), np.ones(1),
                                  rng.random((1, 3)))
        np.testing.assert_array_equal(_bin_counts(t[0], 8), [1, 0, 0, 1, 0, 0, 0, 1])

    def test_under_budget_thins_support_evenly(self, rng):
        # s < c keeps s evenly spaced support bins, whatever their phat, and
        # draws one sample in each
        z = 64
        phat = np.zeros((1, z))
        phat[0, [1, 2, 5, 6]] = [0.1, 0.5, 0.3, 0.1]
        t, _ = budget_sample_grid(phat > 0, phat, 2, np.zeros(1), np.ones(1),
                                  rng.random((1, 2)))
        counts = _bin_counts(t[0], z)
        assert np.flatnonzero(counts).tolist() == [1, 6] and counts.max() == 1

        # 10 support bins at s=4 keep 20, 23, 26, 29; a row with s >= c in
        # the same batch is sampled as it would be alone
        support = np.zeros((2, z), dtype=bool)
        support[0, 20:30] = True
        support[1, [3, 9]] = True
        phat = normalize_pdf(support * rng.random((2, z)))
        xi = rng.random((2, 4))
        t, delta = budget_sample_grid(support, phat, 4, np.zeros(2), np.ones(2), xi)
        counts = _bin_counts(t[0], z)
        assert np.flatnonzero(counts).tolist() == [20, 23, 26, 29] and counts.max() == 1
        alone = budget_sample_grid(support[1:], phat[1:], 4, np.zeros(1), np.ones(1),
                                   xi[1:])
        np.testing.assert_array_equal(t[1], alone[0][0])
        np.testing.assert_array_equal(delta[1], alone[1][0])

    def test_bimodal_support_covers_both_modes(self):
        # two disjoint runs; s >= c means every stratum gets >= 1 sample
        support = np.zeros((1, 64), dtype=bool)
        support[0, 10:14] = True
        support[0, 40:44] = True
        phat = normalize_pdf(support.astype(float))
        for trial in range(100):
            xi = block_uniforms(trial, 0, (1, 8))
            t, _ = budget_sample_grid(support, phat, 8, np.zeros(1), np.ones(1), xi)
            b = (t[0] * 64).astype(int)
            assert np.any((b >= 10) & (b < 14)) and np.any((b >= 40) & (b < 44))

    def test_sorted_within_support_and_delta_clipped(self, rng):
        z = 16
        support = np.zeros((1, z), dtype=bool)
        support[0, [2, 3, 9, 10, 11]] = True
        phat = normalize_pdf(support.astype(float) * rng.random(z))
        xi = rng.random((1, 13))
        t, delta = budget_sample_grid(support, phat, 13, np.array([2.0]),
                                      np.array([4.0]), xi)
        width = 2.0 / z
        assert np.all(np.diff(t[0]) >= 0)
        assert np.all(delta[0] <= width + 1e-12)
        b = ((t[0] - 2.0) / width).astype(int)
        assert set(b.tolist()) <= {2, 3, 9, 10, 11}

    def test_budget_validation(self, rng):
        support = np.zeros((1, 4), dtype=bool)
        support[0, 0] = True
        with pytest.raises(ValueError):
            budget_sample_grid(support, np.ones((1, 4)) / 4, 0, np.zeros(1), np.ones(1),
                               rng.random((1, 0)))
        with pytest.raises(ValueError):
            budget_sample_grid(np.zeros((1, 4), dtype=bool), np.ones((1, 4)) / 4, 2,
                               np.zeros(1), np.ones(1), rng.random((1, 2)))


class TestAdaptiveScore:
    def test_concentrated_pdf_scores_zero(self):
        p = np.zeros(192)
        p[50:60] = 0.1
        assert adaptive_score_grid(p[None], k=16)[0] == 0.0

    def test_uniform_score(self):
        p = np.full(192, 1 / 192)
        assert adaptive_score_grid(p[None], k=16)[0] == pytest.approx(1 - 16 / 192,
                                                                      abs=1e-12)

    def test_k_must_be_smaller_than_z(self):
        with pytest.raises(ValueError):
            adaptive_score_grid(np.full((1, 8), 1 / 8), k=8)

    def test_grid_matches_single(self, rng):
        # each row of a batch scores as it would alone
        p = normalize_pdf(rng.random((20, 48)))
        grid = adaptive_score_grid(p, k=5)
        for i in range(20):
            assert grid[i] == pytest.approx(adaptive_score_grid(p[i:i + 1], k=5)[0],
                                            abs=1e-12)


class TestAllocateBudgets:
    def test_default_budget_mean_is_17_6(self, rng):
        scores = rng.random((40, 40))  # 1600 pixels, divisible by 10
        spp = allocate_budgets(scores, SampleBudget())
        assert spp.mean() == pytest.approx(17.6, abs=1e-12)
        assert set(np.unique(spp)) == {16, 32}

    def test_fraction_zero_all_base(self, rng):
        spp = allocate_budgets(rng.random((8, 8)),
                               SampleBudget(16, 32, 0.0))
        assert np.all(spp == 16)

    def test_low_budget_variant_mean_10(self, rng):
        spp = allocate_budgets(rng.random((40, 25)),
                               SampleBudget(9, 19, 0.10))
        assert spp.mean() == pytest.approx(10.0, abs=1e-12)

    def test_boosted_pixels_are_top_scores(self):
        scores = np.arange(100, dtype=float).reshape(10, 10)
        spp = allocate_budgets(scores, SampleBudget(4, 8, 0.10))
        assert np.flatnonzero(spp.ravel() == 8).tolist() == list(range(90, 100))

    def test_ties_resolve_row_major(self):
        spp = allocate_budgets(np.zeros((10, 10)), SampleBudget(4, 8, 0.10))
        assert np.flatnonzero(spp.ravel() == 8).tolist() == list(range(10))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SampleBudget(16, 8, 0.1)
        with pytest.raises(ValueError):
            SampleBudget(16, 32, 1.5)


class TestHelpers:
    def test_block_uniforms_deterministic(self):
        a = block_uniforms(7, 3, (5, 4))
        b = block_uniforms(7, 3, (5, 4))
        assert np.array_equal(a, b)
        c = block_uniforms(8, 3, (5, 4))
        assert not np.array_equal(a, c)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

    def test_upsample_nearest(self):
        g = np.arange(4.0).reshape(1, 2, 2)
        up = upsample_nearest(g, 2)
        np.testing.assert_array_equal(up[0], [[0, 0, 1, 1], [0, 0, 1, 1],
                                              [2, 2, 3, 3], [2, 2, 3, 3]])

    def test_normalize_pdf_keeps_zero_rows(self):
        p = normalize_pdf(np.array([[1.0, 3.0], [0.0, 0.0]]))
        np.testing.assert_allclose(p[0], [0.25, 0.75])
        np.testing.assert_array_equal(p[1], [0.0, 0.0])


class TestAdaptiveScoreOnScene:
    def test_discontinuity_pixels_outscore_interior(self, rng):
        # oracle: analytic silhouette mask from closed-form ray-sphere depths
        from conftest import ray_sphere_hit, small_camera
        from volsampler.render import camera_geometry, render_probe
        from volsampler.scenes import make_scene

        from volsampler.scenes import _TWO_SPHERES

        res, z = 48, 192
        ca, ra, cb, rb = _TWO_SPHERES
        scene = make_scene("two-spheres", beta=0.02)
        cam = small_camera(res)
        o, d, _, _ = camera_geometry(cam)
        depth = np.full(res * res, np.inf)
        for k in range(res * res):
            hits = [ray_sphere_hit(o[k], d[k], ca, ra),
                    ray_sphere_hit(o[k], d[k], cb, rb)]
            hits = [h for h in hits if h is not None]
            if hits:
                depth[k] = min(hits)
        depth = depth.reshape(res, res)
        finite = np.isfinite(depth)

        # neighborhood depth range marks discontinuities (hit/miss or jump)
        big = np.where(finite, depth, 1e3)
        jump = np.zeros((res, res), bool)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                sh = np.roll(np.roll(big, dy, 0), dx, 1)
                jump |= np.abs(big - sh) > 0.15
        jump[0, :] = jump[-1, :] = jump[:, 0] = jump[:, -1] = False
        discont = jump & finite
        interior = finite & ~jump
        assert discont.sum() > 20 and interior.sum() > 200

        probe = render_probe(scene, cam, z_bins=z)
        pdf = normalize_pdf(probe.weights.reshape(z, -1).T)
        scores = adaptive_score_grid(pdf, 16).reshape(res, res)

        # rank-sum z statistic: discontinuity scores stochastically larger
        a = scores[discont]
        b = scores[interior]
        allv = np.concatenate([a, b])
        ranks = np.empty(allv.size)
        order = np.argsort(allv, kind="stable")
        ranks[order] = np.arange(1, allv.size + 1)
        ra = ranks[:a.size].sum()
        n1, n2 = a.size, b.size
        mu = n1 * (n1 + n2 + 1) / 2.0
        sigma = np.sqrt(n1 * n2 * (n1 + n2 + 1) / 12.0)
        zstat = (ra - mu) / sigma
        assert a.mean() > b.mean()
        assert zstat > 3.0
