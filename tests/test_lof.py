import numpy as np
import pytest

from aegrlof import lof

from conftest import naive_lof_scores


def _lattice_1d(n=10):
    return np.arange(float(n))[:, None]


def _grid_2d(side=15):
    xs, ys = np.meshgrid(np.arange(float(side)), np.arange(float(side)))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


class TestFit:
    def test_lattice_k_distance_and_members(self):
        model = lof.fit(np.array([[0.0], [1.0], [2.0], [3.0]]), min_pts=2)
        np.testing.assert_allclose(model.k_distances, [2.0, 1.0, 1.0, 2.0])
        # members of point 1: all others within k-distance 1 -> {0, 2}
        dists = np.abs(model.reference[:, 0] - 1.0)
        members = [j for j in range(4) if j != 1 and dists[j] <= model.k_distances[1]]
        assert members == [0, 2]

    def test_duplicate_points_guarded(self):
        model = lof.fit(np.zeros((5, 2)), min_pts=2)
        assert np.all(np.isfinite(model.lrds))
        np.testing.assert_array_equal(model.lrds, 1e10)

    def test_min_pts_at_reference_size_errors(self):
        with pytest.raises(ValueError, match="min_pts"):
            lof.fit(np.zeros((5, 2)), min_pts=5)

    def test_min_pts_below_one_errors(self):
        with pytest.raises(ValueError, match="min_pts"):
            lof.fit(np.zeros((5, 2)), min_pts=0)

    def test_non_finite_reference_errors(self):
        bad = np.zeros((5, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            lof.fit(bad, min_pts=2)

    def test_cached_stats_match_recomputation(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=(40, 3))
        model = lof.fit(ref, min_pts=4)
        for o in range(40):
            dists = np.linalg.norm(ref - ref[o], axis=1)
            dists[o] = np.inf
            k_dist = np.sort(dists)[3]
            assert abs(model.k_distances[o] - k_dist) < 1e-9
            members = np.nonzero(dists <= k_dist)[0]
            reach = np.maximum(model.k_distances[members], dists[members])
            lrd_o = len(members) / reach.sum()
            assert abs(model.lrds[o] - lrd_o) < 1e-9

    def test_tie_inclusion_grows_neighborhood(self):
        # center plus 8 equidistant ring points: with min_pts=4 the
        # center's neighborhood holds all 8 tied neighbors
        angles = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ref = np.vstack([[[0.0, 0.0]], ring, 5.0 + ring * 0.1])
        model = lof.fit(ref, min_pts=4)
        dists = np.linalg.norm(ref - ref[0], axis=1)
        dists[0] = np.inf
        members = np.sum(dists <= model.k_distances[0])
        assert members == 8 > 4


class TestReachDist:
    def test_branches(self):
        # reference: tight pair {0, 0.5} plus far point; k-distances known
        ref = np.array([[0.0], [0.5], [10.0]])
        model = lof.fit(ref, min_pts=1)
        np.testing.assert_allclose(model.k_distances, [0.5, 0.5, 9.5])
        # far query: actual distance dominates
        assert lof.reach_dist(model, np.array([5.0]), 0) == 5.0
        # near query: the reference's k-distance dominates
        assert lof.reach_dist(model, np.array([0.1]), 0) == 0.5
        # coincident query: exactly the k-distance
        assert lof.reach_dist(model, np.array([0.0]), 0) == 0.5


class TestLrd:
    def test_interior_lattice_point_has_unit_density(self):
        model = lof.fit(_lattice_1d(11), min_pts=2)
        assert lof.lrd(model, np.array([5.0])) == pytest.approx(1.0)

    def test_coincident_duplicates_hit_guard(self):
        ref = np.vstack([np.zeros((3, 2)), np.ones((3, 2)) * 5])
        model = lof.fit(ref, min_pts=2)
        assert lof.lrd(model, np.zeros(2)) == pytest.approx(1e10)

    def test_scaling_coordinates_scales_lrd_inversely(self):
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(30, 2))
        q = rng.normal(size=2)
        for c in (2.0, 10.0):
            base = lof.lrd(lof.fit(ref, 3), q)
            scaled = lof.lrd(lof.fit(ref * c, 3), q * c)
            np.testing.assert_allclose(scaled, base / c, rtol=1e-9)


class TestScore:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            n = int(rng.integers(25, 90))
            d = int(rng.integers(1, 5))
            min_pts = int(rng.integers(2, 15))
            ref = rng.normal(size=(n, d))
            queries = rng.normal(size=(25, d))
            got = lof.score(lof.fit(ref, min_pts), queries)
            want = naive_lof_scores(ref, min_pts, queries)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)

    def test_interior_lattice_scores_near_one(self):
        model = lof.fit(_grid_2d(15), min_pts=8)
        interior = np.array(
            [[x, y] for x in range(4, 11) for y in range(4, 11)], dtype=float
        )
        scores = lof.score(model, interior)
        assert np.all(np.abs(scores - 1.0) <= 0.05)

    def test_far_point_scores_above_one(self):
        rng = np.random.default_rng(9)
        cluster = rng.normal(size=(100, 3)) * 0.2
        model = lof.fit(cluster, min_pts=10)
        far = lof.score(model, np.array([[100.0, 0.0, 0.0]]))
        near = lof.score(model, np.zeros((1, 3)))
        assert far[0] > 1.0
        assert far[0] > near[0]

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        ref = rng.normal(size=(60, 4))
        queries = rng.normal(size=(15, 4))
        shift = rng.normal(size=4) * 100.0
        base = lof.score(lof.fit(ref, 5), queries)
        moved = lof.score(lof.fit(ref + shift, 5), queries + shift)
        np.testing.assert_allclose(moved, base, atol=1e-9)

    def test_scale_invariance_of_scores(self):
        rng = np.random.default_rng(14)
        ref = rng.normal(size=(60, 3))
        queries = rng.normal(size=(15, 3))
        base = lof.score(lof.fit(ref, 6), queries)
        scaled = lof.score(lof.fit(ref * 7.5, 6), queries * 7.5)
        np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_receding_query_rank_never_decreases(self):
        rng = np.random.default_rng(15)
        cluster = rng.normal(size=(80, 2)) * 0.3
        model = lof.fit(cluster, min_pts=10)
        others = rng.normal(size=(20, 2)) * 2.0
        direction = np.array([1.0, 0.5])
        direction /= np.linalg.norm(direction)
        prev_rank = -1
        for radius in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            queries = np.vstack([others, direction * radius])
            scores = lof.score(model, queries)
            rank = int(np.sum(scores <= scores[-1]))
            assert rank >= prev_rank
            prev_rank = rank

    def test_width_mismatch(self):
        model = lof.fit(np.random.default_rng(0).normal(size=(10, 3)), 2)
        with pytest.raises(ValueError, match="width"):
            lof.score(model, np.zeros((2, 4)))
