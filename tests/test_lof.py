import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

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
        # the far point reaches its neighbor 0.5 at its actual distance
        # 9.5; the pair reach each other at the k-distance 0.5
        np.testing.assert_allclose(model.lrds, [2.0, 2.0, 1.0 / 9.5])
        scores = lof.score(model, np.array([[5.0], [0.1], [0.0]]))
        # far query: its actual distance 4.5 to 0.5 dominates, lrd 1/4.5;
        # near query: the reference's k-distance 0.5 dominates, lrd 2;
        # coincident query: exactly the k-distance, lrd 2
        np.testing.assert_allclose(scores, [2.0 * 4.5, 1.0, 1.0])


class TestLrd:
    def test_interior_lattice_point_has_unit_density(self):
        model = lof.fit(_lattice_1d(11), min_pts=2)
        assert model.lrds[5] == pytest.approx(1.0)
        # as a query, 5 meets itself at 0 and ties 4 and 6 at 1: every
        # reachability distance is 1, and so is every member's lrd
        assert lof.score(model, np.array([5.0]))[0] == pytest.approx(1.0)

    def test_coincident_duplicates_hit_guard(self):
        ref = np.vstack([np.zeros((3, 2)), np.ones((3, 2)) * 5])
        model = lof.fit(ref, min_pts=2)
        np.testing.assert_array_equal(model.k_distances, 0.0)
        np.testing.assert_array_equal(model.lrds, 1e10)
        # a coincident query gets the capped density too, so it scores 1
        assert lof.score(model, np.zeros(2))[0] == pytest.approx(1.0)

    def test_scaling_coordinates_scales_lrd_inversely(self):
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(30, 2))
        base = lof.fit(ref, 3)
        for c in (2.0, 10.0):
            scaled = lof.fit(ref * c, 3)
            np.testing.assert_allclose(scaled.k_distances, base.k_distances * c,
                                       rtol=1e-9)
            np.testing.assert_allclose(scaled.lrds, base.lrds / c, rtol=1e-9)


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

    def test_non_finite_query_scores_nan(self):
        model = lof.fit(_grid_2d(5), min_pts=3)
        queries = np.array([[2.0, 2.0], [np.nan, 1.0], [1.0, np.inf]])
        scores = lof.score(model, queries)
        assert np.isfinite(scores[0])
        assert np.all(np.isnan(scores[1:]))
        assert lof.score(model, np.empty((0, 2))).shape == (0,)

    def test_blocks_and_chunks_do_not_change_results(self, monkeypatch):
        # all-tie rows (duplicates) make every pair a candidate; a tiny
        # budget splits rows into many blocks and gathers in many chunks
        rng = np.random.default_rng(16)
        ref = np.vstack([np.zeros((40, 3)), rng.integers(-2, 3, size=(60, 3))])
        queries = np.vstack([np.zeros((5, 3)), rng.normal(size=(20, 3))])
        base = lof.fit(ref, 7)
        base_scores = lof.score(base, queries)
        monkeypatch.setattr(lof, "_ELEMENT_BUDGET", 50)
        small = lof.fit(ref, 7)
        np.testing.assert_array_equal(small.k_distances, base.k_distances)
        np.testing.assert_array_equal(small.lrds, base.lrds)
        np.testing.assert_array_equal(lof.score(small, queries), base_scores)

    def test_width_mismatch(self):
        model = lof.fit(np.random.default_rng(0).normal(size=(10, 3)), 2)
        with pytest.raises(ValueError, match="width"):
            lof.score(model, np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# properties on small integer coordinates: duplicates and exact ties are
# common, and every squared distance is an exact integer. Duplicates cap
# densities at 1e10, so scores can reach 1e10 and 1e-9 is also relative.

SCORE_TOL = {"rtol": 1e-9, "atol": 1e-9}


@st.composite
def lof_problems(draw, max_rows=30):
    """(reference, min_pts, queries) with coordinates in -4..4."""
    d = draw(st.integers(1, 3))
    min_pts = draw(st.integers(1, 6))
    n = draw(st.integers(min_pts + 1, max_rows))
    coords = st.integers(-4, 4).map(float)
    reference = draw(arrays(np.float64, (n, d), elements=coords))
    queries = draw(arrays(np.float64, (draw(st.integers(1, 8)), d), elements=coords))
    return reference, min_pts, queries


def _neighbor_sets(points, reference, min_pts, exclude_self):
    rows, cols, _, k_distances = lof._neighborhoods(
        points, lof._sq_norms(points), reference, lof._sq_norms(reference),
        min_pts, exclude_self)
    return k_distances, [set(cols[rows == i]) for i in range(points.shape[0])]


def _tree_neighbor_sets(points, reference, min_pts, exclude_self):
    tree = cKDTree(reference)
    k = min_pts + exclude_self  # a point meets itself at distance 0
    k_distances = tree.query(points, k=[k])[0][:, 0]
    # squared distances are integers, so the relative nudge only absorbs
    # the rounding of sqrt and cannot admit the next distance
    balls = tree.query_ball_point(points, k_distances * (1.0 + 1e-9))
    return k_distances, [set(ball) - ({i} if exclude_self else set())
                         for i, ball in enumerate(balls)]


class TestProperties:
    @settings(max_examples=150)
    @given(lof_problems())
    def test_neighborhoods_match_kd_tree(self, problem):
        reference, min_pts, queries = problem
        for points, exclude_self in ((reference, True), (queries, False)):
            got_k, got_sets = _neighbor_sets(points, reference, min_pts, exclude_self)
            want_k, want_sets = _tree_neighbor_sets(points, reference, min_pts,
                                                    exclude_self)
            np.testing.assert_allclose(got_k, want_k, rtol=1e-12, atol=0)
            assert got_sets == want_sets
            assert all(len(s) >= min_pts for s in got_sets)
        np.testing.assert_array_equal(lof.fit(reference, min_pts).k_distances,
                                      _neighbor_sets(reference, reference,
                                                     min_pts, True)[0])

    @settings(max_examples=100)
    @given(lof_problems())
    def test_scores_match_oracle(self, problem):
        reference, min_pts, queries = problem
        got = lof.score(lof.fit(reference, min_pts), queries)
        want = naive_lof_scores(reference, min_pts, queries)
        np.testing.assert_allclose(got, want, **SCORE_TOL)

    @settings(max_examples=100)
    @given(lof_problems(), st.randoms(use_true_random=False))
    def test_scores_invariant_to_reference_order(self, problem, random):
        reference, min_pts, queries = problem
        order = list(range(reference.shape[0]))
        random.shuffle(order)
        base = lof.score(lof.fit(reference, min_pts), queries)
        shuffled = lof.score(lof.fit(reference[order], min_pts), queries)
        np.testing.assert_allclose(shuffled, base, **SCORE_TOL)

    @settings(max_examples=100)
    @given(lof_problems(), st.data())
    def test_scores_invariant_to_translation(self, problem, data):
        reference, min_pts, queries = problem
        # offsets of 1e3 make |a|^2 ~ 1e6 while squared distances stay
        # below 200, which the screen's rounding margin must survive
        offset = data.draw(arrays(
            np.float64, reference.shape[1],
            elements=st.sampled_from([-1e3, -2.5, 0.0, 0.75, 1e3])))
        base = lof.score(lof.fit(reference, min_pts), queries)
        moved = lof.score(lof.fit(reference + offset, min_pts), queries + offset)
        np.testing.assert_allclose(moved, base, **SCORE_TOL)

    @settings(max_examples=100)
    @given(lof_problems(), st.randoms(use_true_random=False), st.data())
    def test_scores_invariant_to_signed_axis_permutation(self, problem, random,
                                                          data):
        # on integer coordinates every squared distance is an exact integer
        # in any summation order, so the scores must match bit for bit
        reference, min_pts, queries = problem
        axes = list(range(reference.shape[1]))
        random.shuffle(axes)
        signs = data.draw(arrays(np.float64, len(axes),
                                 elements=st.sampled_from([-1.0, 1.0])))
        base = lof.score(lof.fit(reference, min_pts), queries)
        moved = lof.score(lof.fit(reference[:, axes] * signs, min_pts),
                          queries[:, axes] * signs)
        np.testing.assert_array_equal(moved, base)

    @settings(max_examples=100)
    @given(lof_problems(), st.integers(-30, 30))
    def test_scores_invariant_to_power_of_two_scale(self, problem, exponent):
        reference, min_pts, queries = problem
        # duplicates cap a density at the absolute 1/EPSILON, which does not
        # scale, so the property holds on distinct reference rows; there
        # every distance, density and ratio scales exactly
        reference = np.unique(reference, axis=0)
        assume(reference.shape[0] > min_pts)
        scale = 2.0 ** exponent
        base = lof.score(lof.fit(reference, min_pts), queries)
        scaled = lof.score(lof.fit(reference * scale, min_pts), queries * scale)
        np.testing.assert_array_equal(scaled, base)
