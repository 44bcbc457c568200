import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial import cKDTree

from aegrlof import data, lof

from conftest import make_pendigits_like, naive_lof_scores


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
        # the cap scales with the coordinate range, 5
        np.testing.assert_array_equal(model.lrds, 1 / lof.EPSILON / 5)
        # a coincident query gets the capped density too, so it scores 1
        assert lof.score(model, np.zeros(2))[0] == pytest.approx(1.0)

    def test_duplicate_density_cap_scales_with_the_coordinates(self):
        # 0 and 0 reach each other at distance 0, so their densities are
        # capped; the query 0.5 counts both among its neighbors
        ref = np.array([[0.0], [0.0], [1.0], [3.0]])
        base = lof.score(lof.fit(ref, 1), np.array([[0.5]]))
        scaled = lof.score(lof.fit(ref * 4, 1), np.array([[2.0]]))
        np.testing.assert_array_equal(scaled, base)

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

    def test_blocks_and_chunks_do_not_change_results(self):
        # all-tie rows (duplicates) make every pair a candidate; small
        # leaves split the fit into many screens, a tiny budget splits the
        # dense reference's rows into many blocks, and every gather into
        # many chunks
        rng = np.random.default_rng(16)
        ref = np.vstack([np.zeros((40, 3)), rng.integers(-2, 3, size=(60, 3))])
        queries = np.vstack([np.zeros((5, 3)), rng.normal(size=(20, 3))])
        base = lof.fit(ref, 7)
        base_scores = lof.score(base, queries)
        for leaf_size, budget in ((8, lof._ELEMENT_BUDGET), (lof._LEAF_SIZE, 50),
                                  (8, 50)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(lof, "_LEAF_SIZE", leaf_size)
                patch.setattr(lof, "_ELEMENT_BUDGET", budget)
                for model in (lof.fit(ref, 7), _dense_model(ref, 7)):
                    np.testing.assert_array_equal(model.k_distances, base.k_distances)
                    np.testing.assert_array_equal(model.lrds, base.lrds)
                    np.testing.assert_array_equal(lof.score(model, queries),
                                                  base_scores)

    def test_width_mismatch(self):
        model = lof.fit(np.random.default_rng(0).normal(size=(10, 3)), 2)
        with pytest.raises(ValueError, match="width"):
            lof.score(model, np.zeros((2, 4)))


def _dense_model(reference, min_pts):
    """The model of every (row, reference) pair screened in blocks of
    rows, the dense form of ``_neighborhoods`` that ``score`` runs on: the
    reference that ``fit``, on its k-d leaves, must match bit for bit."""
    sq_norms = lof._sq_norms(reference)
    rows, cols, dists, k_distances = lof._neighborhoods(
        reference, sq_norms, reference, sq_norms, min_pts, exclude_self=True)
    scale = float(np.ptp(reference, axis=0).max()) or 1.0
    _, lrds = lof._densities(rows, cols, dists, k_distances, reference.shape[0], scale)
    return lof.LofModel(reference, min_pts, k_distances, lrds, sq_norms, scale)


def _assert_fit_matches_dense(reference, min_pts, queries):
    """Every k-distance, density and score of ``fit`` is bit-equal to
    the dense reference's."""
    model = lof.fit(reference, min_pts)
    dense = _dense_model(reference, min_pts)
    np.testing.assert_array_equal(model.k_distances, dense.k_distances)
    np.testing.assert_array_equal(model.lrds, dense.lrds)
    np.testing.assert_array_equal(lof.score(model, queries), lof.score(dense, queries))


def _clustered_latents(rng, n=1500):
    """5-D latents in 25 tight clusters, like pruned pendigits latents:
    at the default leaf size the leaves keep just under half the pairs,
    and a few leaves keep every leaf."""
    centers = rng.uniform(size=(25, 5))
    return centers[rng.integers(0, 25, size=n)] + rng.normal(scale=0.005, size=(n, 5))


def _pendigits_raw_reference():
    """The normalized 1247-row training split of the criterion-8 data."""
    spec = data.SplitSpec(1247 / 2286, 312 / 2286, 727 / 2286, seed=0)
    train, _, _ = data.split(make_pendigits_like(), spec)
    return data.normalize_apply(data.normalize_fit(train), train).features


def _record_screens(monkeypatch):
    """Wrap ``lof._screen``; the returned list gets each call's
    (rows, columns screened, columns gathered?)."""
    calls = []
    screen = lof._screen

    def record(points, points_sq, reference, reference_sq, rows, cols, *rest):
        n_cols = reference.shape[0] if cols is None else cols.size
        calls.append((rows.size, n_cols, cols is not None))
        return screen(points, points_sq, reference, reference_sq, rows, cols, *rest)

    monkeypatch.setattr(lof, "_screen", record)
    return calls


def _unclustered():
    """Uniform 1200x122 rows, and 2000 standard-normal rows in 3 and in 8
    dimensions: every leaf box reaches every other."""
    rng = np.random.default_rng(0)
    return (rng.uniform(size=(1200, 122)), rng.normal(size=(2000, 3)),
            rng.normal(size=(2000, 8)))


class TestScreenSize:
    @pytest.mark.parametrize("budget", [lof._ELEMENT_BUDGET, 50])
    def test_dense_screens_stay_within_the_budget(self, monkeypatch, budget):
        # score and the dense reference screen every pair in blocks of
        # rows: the default budget holds 54 rows of the 1200-row
        # reference; 50 holds less than one, so each screen holds one row
        monkeypatch.setattr(lof, "_ELEMENT_BUDGET", budget)
        calls = _record_screens(monkeypatch)
        rng = np.random.default_rng(3)
        reference = rng.uniform(size=(1200, 8))
        lof.score(_dense_model(reference, 20), rng.uniform(size=(300, 8)))
        n = reference.shape[0]
        assert sum(rows for rows, _, _ in calls) == n + 300
        assert all(n_cols == n and not gathered for _, n_cols, gathered in calls)
        assert all(rows * n_cols <= max(budget, n) for rows, n_cols, _ in calls)

    def test_leaf_path_screens_one_leaf_per_call(self, monkeypatch):
        # bit-equal to the dense reference. A leaf that keeps only some
        # leaves is one screen against their gathered columns; the rows of
        # the leaves that keep every leaf are screened in place, in blocks
        # within the budget. The clustered latents, like the raw pendigits
        # rows, mix both kinds of leaf.
        clustered = _clustered_latents(np.random.default_rng(11))
        leaves = lof._build_leaves(clustered)
        keep = lof._plan(leaves, 20)
        assert leaves.sizes @ (keep @ leaves.sizes) < clustered.shape[0] ** 2 / 2
        assert keep.all(axis=1).any()
        calls = _record_screens(monkeypatch)
        rng = np.random.default_rng(12)
        for reference in (clustered, _pendigits_raw_reference(), *_unclustered()):
            queries = reference[rng.integers(0, reference.shape[0], size=200)]
            queries = np.vstack([queries + rng.normal(scale=0.01, size=queries.shape),
                                 rng.uniform(size=(50, reference.shape[1]))])
            _assert_fit_matches_dense(reference, 20, queries)
            n = reference.shape[0]
            leaves = lof._build_leaves(reference)
            keep = lof._plan(leaves, 20)
            partial = ~keep.all(axis=1)
            calls.clear()
            lof.fit(reference, 20)
            gathered = [(rows, n_cols) for rows, n_cols, gathered in calls if gathered]
            in_place = [rows for rows, n_cols, gathered in calls if not gathered]
            assert gathered == list(zip(leaves.sizes[partial],
                                        (keep @ leaves.sizes)[partial]))
            assert all(rows * n_cols <= lof._LEAF_SIZE * n for rows, n_cols in gathered)
            assert sum(in_place) == leaves.sizes[~partial].sum()
            assert all(rows * n <= max(lof._ELEMENT_BUDGET, n) for rows in in_place)


class TestLeafPath:
    def test_no_finite_queries(self, monkeypatch):
        monkeypatch.setattr(lof, "_LEAF_SIZE", 4)
        model = lof.fit(_grid_2d(6), min_pts=3)
        scores = lof.score(model, np.array([[np.nan, 1.0], [2.0, -np.inf]]))
        assert scores.shape == (2,) and np.all(np.isnan(scores))
        assert lof.score(model, np.empty((0, 2))).shape == (0,)

    @pytest.mark.parametrize("min_pts", [1, 4, 9])
    def test_reference_of_min_pts_plus_one_rows(self, monkeypatch, min_pts):
        rng = np.random.default_rng(min_pts)
        monkeypatch.setattr(lof, "_LEAF_SIZE", 4)
        _assert_fit_matches_dense(rng.normal(size=(min_pts + 1, 3)), min_pts,
                                  rng.normal(size=(12, 3)))

    def test_all_duplicate_leaves(self, monkeypatch):
        # 8 copies of each of 8 points: every leaf of 8 rows is one
        # repeated point with an empty box, and every distance ties
        rng = np.random.default_rng(7)
        points = rng.integers(-2, 3, size=(8, 2)).astype(float)
        reference = np.repeat(points, 8, axis=0)
        queries = np.vstack([points, rng.normal(size=(10, 2))])
        monkeypatch.setattr(lof, "_LEAF_SIZE", 8)
        for min_pts in (3, 8, 12):
            _assert_fit_matches_dense(reference, min_pts, queries)
        leaves = lof._build_leaves(reference)
        np.testing.assert_array_equal(leaves.lo, leaves.hi)

    def test_full_keep_leaves_screen_in_place(self, monkeypatch):
        # every leaf keeps every leaf, so fit gathers no columns and
        # screens every row against the reference in place (bit-equal to
        # the dense reference: see TestScreenSize)
        calls = _record_screens(monkeypatch)
        for reference in _unclustered():
            leaves = lof._build_leaves(reference)
            assert lof._plan(leaves, 20).all()
            calls.clear()
            lof.fit(reference, 20)
            n = reference.shape[0]
            assert sum(rows for rows, _, _ in calls) == n
            assert all(n_cols == n and not gathered for _, n_cols, gathered in calls)


# ---------------------------------------------------------------------------
# properties on small integer coordinates: duplicates and exact ties are
# common, and every squared distance is an exact integer. Duplicates cap
# densities at up to 1e10, so scores can reach 1e10 and 1e-9 is also
# relative.

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


@st.composite
def leaf_problems(draw):
    """(reference, min_pts, leaf_size) over many small leaves: integer
    grids, whose duplicates and ties stay exact, or that grid scaled by
    0.1 or 0.3, whose ties round apart by an ulp; or tight clusters of
    5-D rows. Every coordinate may be moved by +-1e3.

    Leaves of one row make a box distance the distance itself, so a
    squared distance an ulp above the bound, whose square root still
    equals the k-distance, needs the box test's rounding margin.
    """
    min_pts = draw(st.integers(1, 6))
    n = draw(st.integers(min_pts + 1, 60))
    if draw(st.booleans()):
        d = draw(st.integers(1, 5))
        coords = st.integers(-3, 3).map(float)
        scale = draw(st.sampled_from([1.0, 0.1, 0.3]))
        reference = draw(arrays(np.float64, (n, d), elements=coords)) * scale
    else:
        d = 5
        centers = draw(arrays(np.float64, (draw(st.integers(1, 4)), d),
                              elements=st.integers(-4, 4).map(float)))
        which = draw(arrays(np.intp, n, elements=st.integers(0, len(centers) - 1)))
        reference = centers[which] + draw(arrays(np.float64, (n, d),
                                                 elements=st.floats(-0.05, 0.05)))
    offset = draw(arrays(np.float64, d, elements=st.sampled_from([-1e3, 0.0, 1e3])))
    leaf_size = draw(st.sampled_from([1, 2, 4, 8]))
    return reference + offset, min_pts, leaf_size


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(leaf_problems())
    def test_leaf_path_matches_dense_path(self, problem):
        # rows, columns, distances and k-distances are bit-equal, so every
        # density and score is too
        reference, min_pts, leaf_size = problem
        reference_sq = lof._sq_norms(reference)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lof, "_LEAF_SIZE", leaf_size)
            leaves = lof._build_leaves(reference)
        args = (reference, reference_sq, reference, reference_sq, min_pts, True)
        dense = lof._neighborhoods(*args)
        keep = lof._plan(leaves, min_pts)
        for got, want in zip(lof._neighborhoods(*args, leaves=leaves, keep=keep), dense):
            np.testing.assert_array_equal(got, want)

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
        # every distance, density, density cap and ratio scales exactly; a
        # reference of one repeated point has no range to scale its cap by
        assume(np.ptp(reference, axis=0).max() > 0)
        scale = 2.0 ** exponent
        base = lof.score(lof.fit(reference, min_pts), queries)
        scaled = lof.score(lof.fit(reference * scale, min_pts), queries * scale)
        np.testing.assert_array_equal(scaled, base)
