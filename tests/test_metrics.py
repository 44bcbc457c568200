import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aegrlof import metrics

from conftest import pair_count_auc


class TestRocAuc:
    def test_perfect_separation(self):
        assert metrics.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfect_inversion(self):
        assert metrics.roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_all_ties_give_half(self):
        assert metrics.roc_auc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(5, 200))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.normal(size=n), 1)
            assert metrics.roc_auc(scores, labels) == pair_count_auc(scores, labels)

    def test_complement_identity(self):
        rng = np.random.default_rng(32)
        scores = rng.normal(size=60)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        total = metrics.roc_auc(scores, labels) + metrics.roc_auc(scores, 1 - labels)
        assert total == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(33)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        base = metrics.roc_auc(scores, labels)
        assert metrics.roc_auc(np.exp(scores), labels) == base
        assert metrics.roc_auc(2.0 * scores + 5.0, labels) == base

    def test_single_class_errors(self):
        with pytest.raises(ValueError, match="both classes"):
            metrics.roc_auc([0.1, 0.2], [1, 1])

    def test_non_binary_labels(self):
        with pytest.raises(ValueError, match="0/1"):
            metrics.roc_auc([0.1, 0.2], [1, 2])


class TestPrAuc:
    def test_perfect_ranking(self):
        assert metrics.pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_prevalence(self):
        assert metrics.pr_auc([0.3] * 8, [1, 0, 0, 0, 1, 0, 0, 0]) == 0.25

    def test_hand_enumerated_four_point_curve(self):
        # ranks: pos(1) -> precision 1, neg, pos(2/3), neg -> AP = 5/6
        value = metrics.pr_auc([0.9, 0.7, 0.5, 0.3], [1, 0, 1, 0])
        assert value == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_zero_positives_errors(self):
        with pytest.raises(ValueError, match="positive"):
            metrics.pr_auc([0.5, 0.6], [0, 0])

    def test_tie_block_permutation_invariance(self):
        # permuting rows that share a score must not change the value
        scores = np.array([0.9, 0.5, 0.5, 0.5, 0.1])
        labels_a = np.array([1, 1, 0, 0, 0])
        labels_b = np.array([1, 0, 0, 1, 0])
        assert metrics.pr_auc(scores, labels_a) == metrics.pr_auc(scores, labels_b)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(34)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, 40)
        labels[0] = 1
        assert metrics.pr_auc(np.exp(scores), labels) == metrics.pr_auc(
            scores, labels
        )


@st.composite
def integer_scores(draw):
    """(scores, labels): integer scores in -20..20, so ties are common,
    and labels holding both classes."""
    n = draw(st.integers(2, 40))
    scores = draw(arrays(np.int64, n, elements=st.integers(-20, 20)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    assume(labels.min() < labels.max())
    return scores, labels


class TestProperties:
    @settings(max_examples=200)
    @given(integer_scores())
    def test_aucs_invariant_to_increasing_maps(self, problem):
        # both maps are exact on these integers and keep every tie
        scores, labels = problem
        for auc in (metrics.roc_auc, metrics.pr_auc):
            base = auc(scores, labels)
            for mapped in (3 * scores + 1, scores ** 3):
                assert auc(mapped, labels) == base


class TestWilcoxon:
    def test_five_positive_differences_exact(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a - np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        two_sided = metrics.wilcoxon_signed_rank(a, b)
        assert two_sided.w_statistic == 15.0
        assert two_sided.p_value == 0.0625
        assert two_sided.n_effective == 5
        greater = metrics.wilcoxon_signed_rank(a, b, alternative="greater")
        assert greater.p_value == 1.0 / 32.0

    def test_identical_vectors_error(self):
        a = np.arange(6.0)
        with pytest.raises(ValueError, match="all differences zero"):
            metrics.wilcoxon_signed_rank(a, a)

    def test_too_few_nonzero_differences(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        b = a.copy()
        b[0] += 1.0
        with pytest.raises(ValueError, match="at least 5"):
            metrics.wilcoxon_signed_rank(a, b)

    @pytest.mark.parametrize("n", [8, 30])
    def test_swap_antisymmetry(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        ab = metrics.wilcoxon_signed_rank(a, b)
        ba = metrics.wilcoxon_signed_rank(b, a)
        assert ab.w_statistic == -ba.w_statistic
        assert ab.p_value == ba.p_value

    def test_exact_matches_published_critical_value_n10(self):
        # n=10 two-sided table: reject at 0.05 iff min rank sum <= 8
        # W+ = 8: signs positive exactly on ranks {8}
        d = -np.arange(1.0, 11.0)
        d[7] = 8.0  # |d| ranks are 1..10; only rank 8 positive
        result = metrics.wilcoxon_signed_rank(d, np.zeros(10))
        assert result.p_value == pytest.approx(0.048828125, abs=1e-15)
        d9 = -np.arange(1.0, 11.0)
        d9[8] = 9.0  # W+ = 9: just above the critical value
        above = metrics.wilcoxon_signed_rank(d9, np.zeros(10))
        assert above.p_value > 0.05 > result.p_value

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_exact_branch_matches_scipy(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        ours = metrics.wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, mode="exact")
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    @pytest.mark.parametrize("n", [20, 60])
    def test_normal_branch_matches_scipy(self, n):
        rng = np.random.default_rng(200 + n)
        a = rng.normal(size=n)
        b = a + rng.normal(scale=0.5, size=n)
        ours = metrics.wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, mode="approx", correction=False)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_normal_branch_with_ties(self):
        rng = np.random.default_rng(77)
        a = np.round(rng.normal(size=40), 1)
        b = np.round(rng.normal(size=40), 1)
        keep = a != b
        a, b = a[keep], b[keep]
        ours = metrics.wilcoxon_signed_rank(a, b)
        ref = scipy.stats.wilcoxon(a, b, mode="approx", correction=False)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-10)

    def test_unknown_alternative(self):
        with pytest.raises(ValueError, match="alternative"):
            metrics.wilcoxon_signed_rank(np.arange(6.0), np.zeros(6),
                                         alternative="sideways")


class TestComputeMetrics:
    def test_bundles_both_aucs(self):
        scores = np.array([0.9, 0.7, 0.5, 0.3])
        labels = np.array([1, 0, 1, 0])
        result = metrics.compute_metrics(scores, labels)
        assert result.roc_auc == 0.75
        assert result.pr_auc == pytest.approx(5.0 / 6.0)
        assert (result.n_pos, result.n_neg) == (2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("metric", [metrics.roc_auc, metrics.pr_auc,
                                    metrics.compute_metrics])
def test_non_finite_scores_rejected(metric, bad):
    # ROC AUC would rank NaN highest and PR AUC lowest, so no AUC is given
    with pytest.raises(ValueError, match="scores must be finite"):
        metric(np.array([0.1, bad, 0.5, 0.3]), np.array([0, 1, 0, 1]))
