"""Bag-of-words vectorization and numeric conditioning.

Covers the lemma chain, which reads only as much of a preview, then its
abstract, as its first fragment_limit lemmas need, a smoothed tf-idf
fitted on training fragments only, min-max scaling with training extrema
and a truncated SVD keeping the smallest basis that reaches its target.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import VectorizerError
from .text_analysis import MorphologyProvider, normalize_text

FRAGMENT_LIMIT = 256
MAX_VOCABULARY = 2000
SVD_TARGET = 0.95


def preprocess(text: str, morphology: MorphologyProvider,
               stopwords: frozenset[str], limit: int) -> list[str]:
    """The fragment of a text: the first `limit` lemmas of its words,
    lowercased, lemmatized (unknown forms keep their lowercased surface)
    and minus stop words, read from the morphology provider's table as
    analyze() reads it.  Whitespace chunks are read from the start in
    rounds, 2 * limit and then twice as many each round, until the
    fragment is full or the text ends; normalize_text() never creates,
    removes or composes across whitespace, so it runs on them alone.
    """
    if limit < 1:
        raise VectorizerError(f"fragment limit must be positive, got {limit}")
    lemmas, rest, n = [], text, 2 * limit
    while rest and len(lemmas) < limit:
        chunks = rest.split(None, n)
        rest = chunks.pop() if len(chunks) > n else ""
        lemmas += [lemma for lemma in morphology.lemmas(normalize_text(" ".join(chunks)).split())
                   if lemma not in stopwords]
        n *= 2
    return lemmas[:limit]


def has_abstract(abstract: str | None) -> bool:
    """A missing, empty or whitespace-only abstract is none."""
    return bool(abstract and not abstract.isspace())


def augment_with_abstract(preview: str, abstract: str | None) -> str:
    """Join preview and abstract with a single space; documents without
    an abstract pass through unchanged."""
    return preview + " " + abstract if has_abstract(abstract) else preview


@dataclass(eq=False)
class TfidfModel:
    """Fitted tf-idf weighter over a fixed vocabulary.

    Vocabulary holds the max_terms most frequent training lemmas by total
    count, ties broken lexicographically.  idf uses add-one smoothing:
    ln((1 + N) / (1 + df)) + 1.  Rows are L2-normalized, so a transformed
    vector has norm 1, or 0 when no term is in vocabulary.  Models compare
    by identity.
    """

    vocabulary: tuple[str, ...]
    idf: np.ndarray
    n_docs: int
    _index: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {term: i for i, term in enumerate(self.vocabulary)}

    def transform(self, lemmas: list[str]) -> np.ndarray:
        return self.transform_many([lemmas])[0]

    def transform_many(self, documents: list[list[str]]) -> np.ndarray:
        """One row per fragment: its in-vocabulary term counts times idf,
        counted for all fragments by one bincount over (row, term) keys,
        each row divided by its norm, computed as np.linalg.norm does."""
        width = len(self.vocabulary)
        # out-of-vocabulary lemmas count in a last column, dropped below
        terms = list(chain.from_iterable(documents))
        ids = np.fromiter(map(self._index.get, terms, repeat(width)), np.intp, len(terms))
        ids += np.repeat(np.arange(0, len(documents) * (width + 1), width + 1),
                         list(map(len, documents)))
        counts = np.bincount(ids, minlength=len(documents) * (width + 1))
        rows = counts.reshape(len(documents), width + 1)[:, :width] * self.idf
        for row in rows:
            norm = math.sqrt(row.dot(row))
            if norm > 0:
                row /= norm
        return rows


def fit_tfidf(documents: list[list[str]], max_terms: int = MAX_VOCABULARY) -> TfidfModel:
    """Fit vocabulary and idf weights on training fragments."""
    if not documents:
        raise VectorizerError("cannot fit tf-idf on an empty document list")
    if max_terms <= 0:
        raise VectorizerError(f"max_terms must be positive, got {max_terms}")
    totals: Counter = Counter()
    doc_freq: Counter = Counter()
    for lemmas in documents:
        totals.update(lemmas)
        doc_freq.update(set(lemmas))
    if not totals:
        raise VectorizerError("cannot fit tf-idf: no training fragment has a lemma")
    ranked = sorted(totals, key=lambda term: (-totals[term], term))
    vocabulary = tuple(ranked[:max_terms])
    n = len(documents)
    idf = np.array([math.log((1 + n) / (1 + doc_freq[t])) + 1.0 for t in vocabulary])
    return TfidfModel(vocabulary=vocabulary, idf=idf, n_docs=n)


@dataclass(eq=False)
class MinMaxScaler:
    """Column-wise scaling to [0, 1] with training extrema.

    Constant columns map to 0; values outside the training range are
    clipped, so test rows stay inside the unit box.  Scalers compare by
    identity.
    """

    mins: np.ndarray
    ranges: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.mins.shape[0]:
            raise VectorizerError(f"expected {self.mins.shape[0]} columns, got {X.shape[-1]}")
        divisors, constant = self._divisors
        scaled = X - self.mins
        scaled /= divisors
        scaled[..., constant] = 0.0
        return scaled.clip(0.0, 1.0, out=scaled)

    @cached_property
    def _divisors(self) -> tuple[np.ndarray, np.ndarray]:
        """Each column's range, or 1 for a constant column, and the
        constant columns' indices."""
        constant = ~(self.ranges > 0)
        return np.where(constant, 1.0, self.ranges), constant.nonzero()[0]


def fit_minmax(X: np.ndarray) -> MinMaxScaler:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise VectorizerError("minmax scaling needs a non-empty 2-d matrix")
    if not np.all(np.isfinite(X)):
        raise VectorizerError("minmax scaling input contains non-finite values")
    # of 0.0 and -0.0, min() and max() return either, by memory layout;
    # adding 0.0 makes it 0.0, so a fit on some columns is the full fit's
    mins = X.min(axis=0) + 0.0
    ranges = (X.max(axis=0) + 0.0) - mins
    return MinMaxScaler(mins=mins, ranges=ranges)


@dataclass(eq=False)
class SvdModel:
    """Truncated SVD basis fitted on a centered training matrix.

    components has orthonormal rows; retained is the achieved share of
    total variance.  fit_svd accepts a share within 1e-12 below the
    target, so that rounding in the cumulative sum adds no component: at
    target 1.0, retained can read 0.9999999999999994.  Models compare by
    identity.
    """

    mean: np.ndarray
    components: np.ndarray
    retained: float
    target: float

    @property
    def k(self) -> int:
        return self.components.shape[0]

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.mean.shape[0]:
            raise VectorizerError(f"expected {self.mean.shape[0]} columns, got {X.shape[-1]}")
        return (X - self.mean) @ self.components.T


def fit_svd(X: np.ndarray, target: float = SVD_TARGET) -> SvdModel:
    """Fit the smallest centered SVD basis whose cumulative explained
    variance reaches the target share.

    Solves the eigenproblem on the smaller of the covariance and Gram
    matrices, so wide matrices (many more columns than rows) stay cheap.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise VectorizerError("svd needs a matrix with at least 2 rows")
    if not np.all(np.isfinite(X)):
        raise VectorizerError("svd input contains non-finite values")
    if not 0.0 < target <= 1.0:
        raise VectorizerError(f"variance target must be in (0, 1], got {target}")
    n, p = X.shape
    mean = X.mean(axis=0)
    centered = X - mean
    if n <= p:
        gram = centered @ centered.T
        eigvals, eigvecs = np.linalg.eigh(gram)
    else:
        cov = centered.T @ centered
        eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = eigvals.sum()
    if total <= 0.0:
        raise VectorizerError("svd input has zero variance")
    ratio = np.cumsum(eigvals) / total
    k = int(np.searchsorted(ratio, target - 1e-12) + 1)
    k = min(k, int((eigvals > 0).sum()))
    if n <= p:
        # right singular vectors recovered from the Gram eigenvectors
        sigma = np.sqrt(eigvals[:k])
        components = (centered.T @ eigvecs[:, :k] / sigma).T
    else:
        components = eigvecs[:, :k].T
    return SvdModel(mean=mean, components=components,
                    retained=float(ratio[k - 1]), target=target)
