"""Preprocessing chain, tf-idf, min-max scaling and truncated SVD."""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from agelex.errors import VectorizerError
from agelex.vectorizer import (augment_with_abstract, fit_minmax, fit_svd,
                               fit_tfidf, has_abstract, preprocess)


class TestPreprocess:
    # each text holds fewer tokens than the limit of 256, so the
    # fragment is the whole lemma chain
    def test_lemmatization_chain(self, resources):
        assert preprocess("Кот спит!", resources.morphology, frozenset(), 256) == ["кот", "спать"]

    def test_stopwords_removed_after_lemmatization(self, resources):
        out = preprocess("Кот спит!", resources.morphology, frozenset({"спать"}), 256)
        assert out == ["кот"]

    def test_only_stopwords_empty(self, resources):
        lemmas = preprocess("Кот", resources.morphology, frozenset({"кот"}), 256)
        assert lemmas == []

    def test_case_folding_before_lookup(self, resources):
        assert preprocess("КОТ кот", resources.morphology, frozenset(), 256) == ["кот", "кот"]

    def test_unknown_forms_keep_surface(self, resources):
        assert preprocess("Qzqz", resources.morphology, frozenset(), 256) == ["qzqz"]


class TestFragment:
    def test_truncates_to_limit(self, resources):
        assert preprocess("кот " * 300, resources.morphology, frozenset(), 256) == ["кот"] * 256

    def test_short_input_unchanged(self, resources):
        text = "а б в г д е ж з и к"
        assert preprocess(text, resources.morphology, frozenset(), 256) == text.split()

    def test_empty_input(self, resources):
        assert preprocess("", resources.morphology, frozenset(), 256) == []

    def test_non_positive_limit_rejected(self, resources):
        for text in ("кот", ""):
            with pytest.raises(VectorizerError, match="fragment limit"):
                preprocess(text, resources.morphology, frozenset(), 0)

    def test_stopwords_do_not_count_toward_the_limit(self, resources):
        text = "и и и кот " * 400
        assert preprocess(text, resources.morphology, frozenset({"и"}), 300) == ["кот"] * 300


class TestAbstractAugmentation:
    def test_joined_with_single_space(self):
        assert augment_with_abstract("p", "a") == "p a"

    def test_missing_abstract_passthrough(self):
        assert augment_with_abstract("p", None) == "p"

    def test_blank_abstract_passthrough(self):
        assert augment_with_abstract("p", "   ") == "p"

    @pytest.mark.parametrize("abstract,expected", [
        (None, False), ("", False), ("   ", False), ("\u3000\n", False), ("a", True), (" a ", True)])
    def test_has_abstract_is_the_augmentation_test(self, abstract, expected):
        assert has_abstract(abstract) is expected
        assert (augment_with_abstract("p", abstract) != "p") is expected


def reference_tfidf_row(model, lemmas) -> np.ndarray:
    """One fragment's row, counted term by term."""
    vec = np.zeros(len(model.vocabulary))
    for term, count in Counter(lemmas).items():
        if term in model.vocabulary:
            i = model.vocabulary.index(term)
            vec[i] = count * model.idf[i]
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


class TestTfidf:
    def test_single_fragment_fixture(self):
        # one training fragment ["a","a","b"]: df = 1 for both terms, so
        # idf = ln(2/2) + 1 = 1; raw vector (2, 1); normalized (2,1)/sqrt(5)
        model = fit_tfidf([["a", "a", "b"]])
        assert set(model.vocabulary) == {"a", "b"}
        assert model.idf == pytest.approx([1.0, 1.0], abs=1e-12)
        vec = model.transform(["a", "a", "b"])
        by_term = dict(zip(model.vocabulary, vec))
        assert by_term["a"] == pytest.approx(2 / math.sqrt(5), abs=1e-12)
        assert by_term["b"] == pytest.approx(1 / math.sqrt(5), abs=1e-12)

    def test_idf_formula(self):
        # "b" appears in 1 of 3 documents: idf = ln(4/2) + 1
        model = fit_tfidf([["a", "b"], ["a"], ["a"]])
        idf = dict(zip(model.vocabulary, model.idf))
        assert idf["b"] == pytest.approx(math.log(4 / 2) + 1, abs=1e-12)
        assert idf["a"] == pytest.approx(math.log(4 / 4) + 1, abs=1e-12)

    def test_vocabulary_ranked_by_count_then_lexicographic(self):
        model = fit_tfidf([["b", "b", "c", "a", "a"]], max_terms=2)
        assert model.vocabulary == ("a", "b")  # ties a/b broken by lemma

    def test_vocabulary_capped(self):
        docs = [[f"w{i}" for i in range(50)]]
        assert len(fit_tfidf(docs, max_terms=10).vocabulary) == 10

    def test_oov_ignored(self):
        model = fit_tfidf([["a", "b"]])
        vec = model.transform(["zzz"])
        assert np.linalg.norm(vec) == 0.0

    def test_empty_training_rejected(self):
        with pytest.raises(VectorizerError):
            fit_tfidf([])

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(VectorizerError, match="no training fragment has a lemma"):
            fit_tfidf([[], []])

    def test_refit_is_identical(self):
        docs = [["a", "b", "c"], ["b", "c"], ["c"]]
        m1, m2 = fit_tfidf(docs), fit_tfidf(docs)
        assert m1.vocabulary == m2.vocabulary
        assert np.array_equal(m1.idf, m2.idf)

    @given(st.lists(st.lists(st.sampled_from("abcdefghij"), max_size=40), min_size=1,
                    max_size=8),
           st.lists(st.lists(st.sampled_from("abcdefghijklm"), max_size=40), max_size=6),
           st.integers(1, 12))
    def test_transform_many_is_the_stacked_rows(self, train, queries, max_terms):
        assume(any(train))
        model = fit_tfidf(train, max_terms)
        # empty, all out of vocabulary, one repeated term
        queries += [[], ["zzz", "yyy", "zzz"], [model.vocabulary[-1]] * 7]
        rows = model.transform_many(queries)
        assert rows.shape == (len(queries), len(model.vocabulary))
        assert rows.tobytes() == np.vstack([model.transform(q) for q in queries]).tobytes()
        assert rows.tobytes() == np.vstack([reference_tfidf_row(model, q)
                                            for q in queries]).tobytes()

    def test_transform_many_of_no_fragments(self):
        assert fit_tfidf([["a", "b"]]).transform_many([]).shape == (0, 2)

    @given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=12), min_size=1, max_size=8),
           st.lists(st.sampled_from("abcdefgh"), max_size=12))
    def test_norm_is_one_or_zero(self, docs, query):
        if not any(docs):
            with pytest.raises(VectorizerError, match="no training fragment has a lemma"):
                fit_tfidf(docs)
            return
        model = fit_tfidf(docs)
        norm = np.linalg.norm(model.transform(query))
        assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0


@st.composite
def scaling_inputs(draw):
    """A finite training matrix, some of its columns constant, rows to
    scale with it and a list of its columns, repeats allowed."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    X, Z = (draw(arrays(np.float64, (rows, p), elements=st.floats(-1e6, 1e6)))
            for rows in (n, 3))
    for j in draw(st.sets(st.integers(0, p - 1))):
        X[:, j] = X[0, j]
    return X, Z, draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p))


class TestMinMax:
    def test_compares_by_identity(self):
        # a generated __eq__ would compare the arrays and raise
        first, second = (fit_minmax(np.array([[0.0, 1.0], [5.0, 2.0]])) for _ in range(2))
        assert (first == first, first == second) == (True, False)

    def test_basic_column(self):
        scaler = fit_minmax(np.array([[0.0], [5.0], [10.0]]))
        out = scaler.transform(np.array([[0.0], [5.0], [10.0]]))
        assert out[:, 0] == pytest.approx([0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        scaler = fit_minmax(np.array([[3.0], [3.0], [3.0]]))
        assert scaler.transform(np.array([[3.0]]))[0, 0] == 0.0

    def test_out_of_range_clipped(self):
        scaler = fit_minmax(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[12.0]]))[0, 0] == 1.0
        assert scaler.transform(np.array([[-3.0]]))[0, 0] == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(VectorizerError):
            fit_minmax(np.array([[np.nan], [1.0]]))

    def test_column_count_checked(self):
        scaler = fit_minmax(np.array([[0.0, 1.0]]))
        with pytest.raises(VectorizerError):
            scaler.transform(np.array([[1.0]]))

    @settings(max_examples=25)
    @given(arrays(np.float64, (6, 3), elements=st.floats(-100, 100)))
    def test_training_rows_land_in_unit_box(self, X):
        scaler = fit_minmax(X)
        out = scaler.transform(X)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @settings(max_examples=200, deadline=None)
    @given(scaling_inputs())
    # which signed zero a column's min() returns can depend on the memory
    # layout: NumPy 2.4.6 gives -0.0 here for the C-ordered matrix and 0.0
    # for its Fortran-ordered column selection
    @example((np.array([[0.0, 2.0]] * 8 + [[-0.0, 2.0], [1.0, 2.0]]),
              np.array([[-0.0, 2.0]]), [0, 0, 1]))
    def test_fitting_commutes_with_column_selection(self, inputs):
        # the grid fits one scaler on all columns and hands each model
        # its columns of it, which is a fit on those columns alone
        X, Z, cols = inputs
        full, sub = fit_minmax(X), fit_minmax(X[:, cols])
        assert sub.mins.tobytes() == full.mins[cols].tobytes()
        assert sub.ranges.tobytes() == full.ranges[cols].tobytes()
        for rows in (X, Z):
            assert sub.transform(rows[:, cols]).tobytes() == full.transform(rows)[:, cols].tobytes()


class TestSvd:
    def test_compares_by_identity(self):
        X = np.random.default_rng(0).normal(size=(10, 4))
        first, second = fit_svd(X, 0.9), fit_svd(X, 0.9)
        assert (first == first, first == second) == (True, False)

    def test_rank_one_matrix(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(30, 1))
        v = rng.normal(size=(1, 8))
        model = fit_svd(u @ v, 0.95)
        assert model.k == 1
        assert model.retained == pytest.approx(1.0)

    def test_energy_split_needs_two_components(self):
        # singular-value energies 0.9 / 0.06 / 0.04: one keeps 90%,
        # two reach 96% >= 95%
        rng = np.random.default_rng(1)
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        n = 600
        Z = rng.standard_normal((n, 3))
        Z = (Z - Z.mean(axis=0)) @ np.linalg.inv(np.linalg.cholesky(np.cov(Z.T, bias=True)).T).T
        X = Z @ np.diag(np.sqrt([0.9, 0.06, 0.04])) @ basis.T
        model = fit_svd(X, 0.95)
        assert model.k == 2

    def test_isotropic_needs_most_components(self):
        rng = np.random.default_rng(2)
        p = 10
        Z = rng.standard_normal((400, p))
        # round-off guard: exactly whiten so every direction carries 1/p
        Z = Z - Z.mean(axis=0)
        cov = np.cov(Z.T, bias=True)
        Z = Z @ np.linalg.inv(np.linalg.cholesky(cov).T)
        model = fit_svd(Z, 0.95)
        assert model.k == math.ceil(0.95 * p)

    def test_zero_variance_rejected(self):
        with pytest.raises(VectorizerError, match="zero variance"):
            fit_svd(np.zeros((5, 3)))

    def test_single_row_rejected(self):
        with pytest.raises(VectorizerError):
            fit_svd(np.ones((1, 3)))

    @pytest.mark.parametrize("shape", [(50, 10), (10, 50)])
    def test_contract_against_full_svd_oracle(self, shape):
        rng = np.random.default_rng(42)
        X = rng.normal(size=shape) @ np.diag(np.linspace(3, 0.1, shape[1])[: shape[1]])
        model = fit_svd(X, 0.95)
        B = model.components
        # orthonormal rows
        assert np.max(np.abs(B @ B.T - np.eye(model.k))) <= 1e-8
        # retained >= target, and k is minimal
        assert model.retained >= 0.95
        centered = X - X.mean(axis=0)
        _, s, vt = np.linalg.svd(centered, full_matrices=False)
        energy = s ** 2 / np.sum(s ** 2)
        if model.k > 1:
            assert np.sum(energy[: model.k - 1]) < 0.95
        # projection matches the oracle up to per-component sign
        ours = model.transform(X)
        theirs = centered @ vt[: model.k].T
        for j in range(model.k):
            sign = np.sign(np.dot(ours[:, j], theirs[:, j])) or 1.0
            assert np.allclose(ours[:, j], sign * theirs[:, j], atol=1e-6)

    def test_projection_dimension(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 12))
        model = fit_svd(X, 0.8)
        assert model.transform(X).shape == (40, model.k)
