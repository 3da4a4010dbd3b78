"""Informativeness scoring, feature ranking, correlations and metrics.

The informativeness measure compares the cumulative frequency curves of
a feature in the two classes over a shared binned range; its maximum
absolute difference lies in [0, 1] and approaches the classical
two-sample KS statistic as the bin count grows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Label
from .errors import AnalysisError

DEFAULT_INTERVALS = 100


def _clean_sample(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise AnalysisError(f"{name} sample is empty")
    if not np.all(np.isfinite(arr)):
        raise AnalysisError(f"{name} sample contains non-finite values")
    return arr


def informativeness(a, b, n_intervals: int = DEFAULT_INTERVALS) -> float:
    """Maximum cumulative-frequency gap between two samples.

    The pooled range [min(a+b), max(a+b)] is divided into n_intervals
    equal bins and both empirical distribution functions are evaluated at
    the bin boundaries.  Identical samples score 0; samples with disjoint
    supports approach 1.
    """
    a = _clean_sample(a, "first")
    b = _clean_sample(b, "second")
    if n_intervals < 1:
        raise AnalysisError(f"n_intervals must be >= 1, got {n_intervals}")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return 0.0
    edges = np.linspace(lo, hi, n_intervals + 1)
    fa = np.searchsorted(np.sort(a), edges, side="right") / a.size
    fb = np.searchsorted(np.sort(b), edges, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


@dataclass(frozen=True)
class FeatureScore:
    """Informativeness and per-class location/scale for one feature."""

    name: str
    score: float
    mean_adult: float
    std_adult: float
    mean_children: float
    std_children: float


def rank_features(X, y, names, n_intervals: int = DEFAULT_INTERVALS) -> list[FeatureScore]:
    """Score every feature column and sort by informativeness.

    y holds +1 (children) / -1 (adult) labels.  Standard deviations are
    population ones (divide by n).  Sorting is by score descending with
    name as tiebreak; constant features score 0 and sink to the bottom.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise AnalysisError("feature matrix must be 2-d")
    if X.shape[0] != y.shape[0]:
        raise AnalysisError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if X.shape[1] != len(names):
        raise AnalysisError(f"{X.shape[1]} columns but {len(names)} names")
    children = X[y == 1]
    adult = X[y == -1]
    if children.shape[0] < 2 or adult.shape[0] < 2:
        raise AnalysisError("need at least 2 documents per class")
    scores = []
    for j, name in enumerate(names):
        col_c = children[:, j]
        col_a = adult[:, j]
        scores.append(FeatureScore(
            name=name,
            score=informativeness(col_a, col_c, n_intervals),
            mean_adult=float(col_a.mean()),
            std_adult=float(col_a.std()),
            mean_children=float(col_c.mean()),
            std_children=float(col_c.std()),
        ))
    return sorted(scores, key=lambda s: (-s.score, s.name))


@dataclass
class CorrelationResult:
    names: tuple[str, ...]
    matrix: np.ndarray
    zero_variance: tuple[str, ...]

    def value(self, name_a: str, name_b: str) -> float:
        i = self.names.index(name_a)
        j = self.names.index(name_b)
        return float(self.matrix[i, j])


def correlation_matrix(X, names) -> CorrelationResult:
    """Pairwise Pearson correlations between feature columns.

    Zero-variance columns would make the coefficient undefined, so their
    off-diagonal entries are set to 0 and the column names are reported
    in zero_variance.  The diagonal is exactly 1.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise AnalysisError("correlation needs a matrix with at least 2 rows")
    if X.shape[1] != len(names):
        raise AnalysisError(f"{X.shape[1]} columns but {len(names)} names")
    if not np.all(np.isfinite(X)):
        raise AnalysisError("correlation input contains non-finite values")
    centered = X - X.mean(axis=0)
    stds = np.sqrt((centered ** 2).mean(axis=0))
    constant = stds == 0
    safe = np.where(constant, 1.0, stds)
    standardized = centered / safe
    matrix = (standardized.T @ standardized) / X.shape[0]
    matrix[constant, :] = 0.0
    matrix[:, constant] = 0.0
    matrix = np.clip(matrix, -1.0, 1.0)
    np.fill_diagonal(matrix, 1.0)
    return CorrelationResult(
        names=tuple(names), matrix=matrix,
        zero_variance=tuple(str(names[i]) for i in np.nonzero(constant)[0]),
    )


@dataclass(frozen=True)
class MetricsReport:
    """Binary classification metrics relative to a positive class."""

    positive_class: Label
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def metrics(predictions, labels, positive: Label = Label.CHILDREN) -> MetricsReport:
    """Accuracy, precision, recall and F1 from +1/-1 predictions and
    labels.  Degenerate denominators yield 0 rather than an error."""
    pred = np.asarray(predictions)
    gold = np.asarray(labels)
    if pred.shape != gold.shape or pred.ndim != 1:
        raise AnalysisError("predictions and labels must be 1-d and the same length")
    if pred.size == 0:
        raise AnalysisError("cannot compute metrics on empty inputs")
    for arr, what in ((pred, "predictions"), (gold, "labels")):
        if not set(arr.tolist()) <= {-1, 1}:
            raise AnalysisError(f"{what} must be +1/-1 values")
    pos = 1 if positive is Label.CHILDREN else -1
    tp = int(np.sum((pred == pos) & (gold == pos)))
    fp = int(np.sum((pred == pos) & (gold != pos)))
    fn = int(np.sum((pred != pos) & (gold == pos)))
    tn = int(np.sum((pred != pos) & (gold != pos)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricsReport(
        positive_class=positive,
        accuracy=(tp + tn) / pred.size,
        precision=precision, recall=recall, f1=f1,
        tp=tp, fp=fp, fn=fn, tn=tn,
    )
