"""Cumulative-frequency informativeness, correlations and metrics."""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from agelex.analysis import (correlation_matrix, informativeness, metrics,
                             rank_features)
from agelex.corpus import Label
from agelex.errors import AnalysisError


def brute_force_ks(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, straight from the
    definition: the largest ECDF gap over every observed value."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    best = 0.0
    for v in np.concatenate([a, b]):
        fa = np.sum(a <= v) / a.size
        fb = np.sum(b <= v) / b.size
        best = max(best, abs(fa - fb))
    return float(best)


SAMPLES = st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=40)


def clear_of_interior_edges(values: np.ndarray, n_intervals: int) -> bool:
    """True when no value lies near an interior bin edge of the pooled
    range: within 1e-9 times the range, plus a rounding allowance of
    1e-12 times the largest magnitude."""
    lo, hi = values.min(), values.max()
    if hi == lo:
        return True
    interior = np.linspace(lo, hi, n_intervals + 1)[1:-1]
    margin = 1e-9 * (hi - lo) + 1e-12 * np.abs(values).max()
    return bool(np.min(np.abs(values[:, None] - interior)) > margin)


class TestInformativeness:
    def test_identical_samples_score_zero(self):
        a = [1.0, 2.0, 3.0, 4.0]
        assert informativeness(a, a) == 0.0

    def test_disjoint_samples_score_one(self):
        assert informativeness([0.0, 0.5, 1.0], [2.0, 2.5, 3.0]) == pytest.approx(1.0)

    def test_hand_computed_two_interval_case(self):
        # pooled range [0,1], boundaries 0, 0.5, 1; at 0.5 the cumulative
        # shares are 2/4 vs 1/4
        a = (0.0, 0.0, 1.0, 1.0)
        b = (0.0, 1.0, 1.0, 1.0)
        assert informativeness(a, b, n_intervals=2) == pytest.approx(0.25)

    def test_constant_everywhere_scores_zero(self):
        assert informativeness([3.0, 3.0], [3.0, 3.0, 3.0]) == 0.0

    def test_empty_sample_rejected(self):
        with pytest.raises(AnalysisError, match="empty"):
            informativeness([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(AnalysisError):
            informativeness([np.nan], [1.0])

    @given(SAMPLES, SAMPLES)
    @settings(max_examples=60)
    def test_symmetric(self, a, b):
        assert informativeness(a, b) == pytest.approx(informativeness(b, a), abs=1e-12)

    @given(SAMPLES, SAMPLES,
           st.floats(0.1, 5, allow_nan=False), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=60)
    def test_invariant_under_common_affine_map(self, a, b, scale, shift):
        # Exact invariance is false in floating point: the shift can absorb
        # a tiny value (0.0 and 5.44e-97 both map to 1.0), and rounding can
        # move a value lying on an interior bin edge to the other side of
        # it.  The property holds when the map keeps the pooled values
        # strictly ordered and every pooled value stays clear of the edges.
        ma = [scale * v + shift for v in a]
        mb = [scale * v + shift for v in b]
        before, after = np.array(a + b), np.array(ma + mb)
        order = np.argsort(before, kind="stable")
        assume(np.array_equal(np.diff(before[order]) > 0, np.diff(after[order]) > 0))
        assume(clear_of_interior_edges(before, 50) and clear_of_interior_edges(after, 50))
        base = informativeness(a, b, n_intervals=50)
        mapped = informativeness(ma, mb, n_intervals=50)
        assert mapped == pytest.approx(base, abs=1e-9)

    @given(SAMPLES, SAMPLES)
    @settings(max_examples=60)
    def test_bounded_in_unit_interval(self, a, b):
        score = informativeness(a, b)
        assert 0.0 <= score <= 1.0

    def test_converges_to_ks_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(0.0, 1.0, size=100)
            b = rng.normal(0.7, 1.3, size=100)
            ours = informativeness(a, b, n_intervals=1000)
            assert abs(ours - brute_force_ks(a, b)) <= 0.02


class TestRankFeatures:
    def test_planted_feature_ranks_first(self):
        rng = np.random.default_rng(3)
        n = 60
        y = np.array([1] * (n // 2) + [-1] * (n // 2))
        X = rng.normal(size=(n, 5))
        # plant strong separation in column 2, mirroring a sentence-length
        # gap between the classes
        X[: n // 2, 2] = rng.normal(80, 5, size=n // 2)
        X[n // 2:, 2] = rng.normal(110, 5, size=n // 2)
        names = ("a", "b", "planted", "c", "d")
        scores = rank_features(X, y, names)
        assert scores[0].name == "planted"

    def test_constant_feature_scores_zero_and_sinks(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 2))
        X[:, 1] = 7.0
        y = np.array([1, -1] * 20)
        scores = rank_features(X, y, ("varies", "constant"))
        assert scores[-1].name == "constant"
        assert scores[-1].score == 0.0

    def test_per_class_mean_and_population_std(self):
        X = np.array([[1.0], [3.0], [10.0], [14.0]])
        y = np.array([1, 1, -1, -1])
        score = rank_features(X, y, ("f",))[0]
        assert score.mean_children == pytest.approx(2.0)
        assert score.std_children == pytest.approx(1.0)  # population: /n
        assert score.mean_adult == pytest.approx(12.0)
        assert score.std_adult == pytest.approx(2.0)

    def test_needs_both_classes(self):
        X = np.ones((4, 1))
        with pytest.raises(AnalysisError):
            rank_features(X, np.array([1, 1, 1, 1]), ("f",))


class TestCorrelationMatrix:
    def test_compares_by_identity(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        first, second = (correlation_matrix(X, ("a", "b", "c")) for _ in range(2))
        assert (first == first, first == second) == (True, False)

    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=30)
        result = correlation_matrix(np.column_stack([col, col]), ("a", "b"))
        assert result.matrix[result.names.index("a"), result.names.index("b")] == pytest.approx(1.0)
        assert result.matrix[0, 0] == 1.0

    def test_negation_is_minus_one(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=30)
        result = correlation_matrix(np.column_stack([col, -col]), ("a", "b"))
        assert result.matrix[result.names.index("a"), result.names.index("b")] == pytest.approx(-1.0)

    def test_zero_variance_column_flagged(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([rng.normal(size=20), np.full(20, 5.0)])
        result = correlation_matrix(X, ("a", "const"))
        assert result.zero_variance == ("const",)
        assert result.matrix[result.names.index("a"), result.names.index("const")] == 0.0
        assert result.matrix[1, 1] == 1.0

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 6))
        result = correlation_matrix(X, tuple("abcdef"))
        M = result.matrix
        assert np.allclose(M, M.T, atol=1e-12)
        assert np.allclose(np.diag(M), 1.0, atol=1e-12)
        assert np.all(M >= -1.0) and np.all(M <= 1.0)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 4))
        ours = correlation_matrix(X, tuple("abcd")).matrix
        oracle = np.corrcoef(X, rowvar=False)
        assert np.allclose(ours, oracle, atol=1e-10)


class TestMetrics:
    def test_all_correct(self):
        y = np.array([1, -1, 1, -1])
        report = metrics(y, y)
        assert (report.accuracy, report.precision, report.recall, report.f1) == (1, 1, 1, 1)

    def test_hand_computed_confusion(self):
        # TP=9, FP=1, FN=3, TN=7
        pred = np.array([1] * 9 + [1] * 1 + [-1] * 3 + [-1] * 7)
        gold = np.array([1] * 9 + [-1] * 1 + [1] * 3 + [-1] * 7)
        report = metrics(pred, gold)
        assert (report.tp, report.fp, report.fn, report.tn) == (9, 1, 3, 7)
        assert report.precision == pytest.approx(0.9)
        assert report.recall == pytest.approx(0.75)
        assert report.f1 == pytest.approx(0.8182, abs=1e-4)
        assert report.accuracy == pytest.approx(0.8)

    def test_zero_predicted_positives(self):
        pred = np.array([-1, -1, -1])
        gold = np.array([1, -1, -1])
        report = metrics(pred, gold)
        assert report.precision == 0.0
        assert report.f1 == 0.0

    def test_positive_class_swap_keeps_accuracy(self):
        pred = np.array([1, 1, -1, -1, 1])
        gold = np.array([1, -1, -1, 1, 1])
        as_children = metrics(pred, gold, Label.CHILDREN)
        as_adult = metrics(pred, gold, Label.ADULT)
        assert as_children.accuracy == as_adult.accuracy
        assert as_children.tp == as_adult.tn
        assert as_children.fp == as_adult.fn

    def test_counts_sum_to_sample_size(self):
        pred = np.array([1, -1, 1, -1, 1, 1])
        gold = np.array([1, 1, -1, -1, 1, -1])
        r = metrics(pred, gold)
        assert r.tp + r.fp + r.fn + r.tn == 6

    def test_length_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            metrics(np.array([1, -1]), np.array([1]))

    def test_non_sign_labels_rejected(self):
        with pytest.raises(AnalysisError):
            metrics(np.array([1, 0]), np.array([1, -1]))
