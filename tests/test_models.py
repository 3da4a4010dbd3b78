"""Linear SVC, random forest and the versioned model files."""
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agelex.models
import agelex.pipeline
from agelex.errors import ArtifactError, ModelError
from agelex.models import (ADULT, CHILDREN, FORMAT_VERSION, DecisionTree,
                           LinearSvcModel, RandomForestModel, _best_splits,
                           _children_votes, _newton_step, _split_tables,
                           load_model, save_model, svc_objective,
                           train_linear_svc, train_random_forest)
from agelex.pipeline import run_grid
from agelex.synthetic import make_corpus

from oracles import gini_impurity


def separable_blobs(seed, n=60, gap=2.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=-gap, scale=0.5, size=(n // 2, 2))
    b = rng.normal(loc=+gap, scale=0.5, size=(n - n // 2, 2))
    X = np.vstack([a, b])
    y = np.array([ADULT] * (n // 2) + [CHILDREN] * (n - n // 2))
    return X, y


def reference_sgd_svc(X, y, C=1.0, max_epochs=200, tolerance=1e-5, seed=42):
    """Seeded per-sample stochastic subgradient descent on svc_objective,
    rolling back any epoch that raises it and halving the step: the
    oracle the Newton solver must match or beat.  Returns (w, b)."""
    n, p = X.shape
    rng = np.random.default_rng(seed)
    w = np.zeros(p)
    b = 0.0
    eta = 1.0 / (1.0 + 2.0 * C * (float(np.mean(np.einsum("ij,ij->i", X, X))) + 1.0))
    best = svc_objective(w, b, X, y, C)
    for _ in range(max_epochs):
        w_prev, b_prev = w.copy(), b
        for i in rng.permutation(n):
            xi = X[i]
            viol = 1.0 - y[i] * (float(xi @ w) + b)
            if viol > 0:
                pull = 2.0 * C * y[i] * viol
                w -= eta * (w / n - pull * xi)
                b += eta * pull
            else:
                w -= eta * (w / n)
        obj = svc_objective(w, b, X, y, C)
        if obj > best:
            w, b = w_prev, b_prev
            eta *= 0.5
            if eta < 1e-15:
                break
            continue
        improvement, best = best - obj, obj
        if improvement < tolerance:
            break
    return w, b


class TestLinearSvc:
    def test_separable_two_point_set(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([ADULT, CHILDREN])
        model = train_linear_svc(X, y)
        assert np.array_equal(model.predict_many(X), y)

    def test_objective_history_monotone(self):
        X, y = separable_blobs(0, gap=0.3)
        model = train_linear_svc(X, y)
        hist = model.objective_history
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_final_objective_no_worse_than_zero_start(self):
        X, y = separable_blobs(1, gap=0.5)
        model = train_linear_svc(X, y)
        start = svc_objective(np.zeros(2), 0.0, X, y, 1.0)
        end = svc_objective(model.weights, model.bias, X, y, 1.0)
        assert end <= start

    def test_xor_cannot_be_separated(self):
        # brute-force oracle: the best of any sign-labeling of the 4 XOR
        # points by a linear rule gets at most 3 right
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([ADULT, CHILDREN, CHILDREN, ADULT])
        best = 0
        rng = np.random.default_rng(7)
        for _ in range(2000):
            w = rng.normal(size=2)
            b = rng.normal()
            pred = np.where(X @ w + b >= 0, CHILDREN, ADULT)
            best = max(best, int(np.sum(pred == y)))
        assert best <= 3
        model = train_linear_svc(X, y)
        accuracy = np.mean(model.predict_many(X) == y)
        assert accuracy <= 0.75

    def test_zero_margin_is_childrens_class(self):
        model = LinearSvcModel(weights=np.array([1.0, 0.0]), bias=0.0,
                               hyperparams={}, objective_history=(0.0,), n_epochs=0)
        label, margin = model.predict(np.array([0.0, 5.0]))
        assert label == CHILDREN and margin == 0.0

    def test_margin_reported(self):
        model = LinearSvcModel(weights=np.array([1.0, 0.0]), bias=0.0,
                               hyperparams={}, objective_history=(0.0,), n_epochs=0)
        label, margin = model.predict(np.array([2.0, 5.0]))
        assert label == CHILDREN and margin == pytest.approx(2.0)

    def test_positive_scaling_of_scores_keeps_predictions(self):
        X, y = separable_blobs(3)
        model = train_linear_svc(X, y)
        for c in (0.5, 2.0, 10.0):
            scaled = LinearSvcModel(weights=c * model.weights, bias=c * model.bias,
                                    hyperparams={}, objective_history=(0.0,), n_epochs=0)
            assert np.array_equal(scaled.predict_many(X), model.predict_many(X))

    def test_deterministic_in_seed(self):
        X, y = separable_blobs(4, gap=0.4)
        m1 = train_linear_svc(X, y, seed=11)
        m2 = train_linear_svc(X, y, seed=11)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias
        m3 = train_linear_svc(X, y, seed=12)
        assert np.array_equal(m1.weights, m3.weights) and m1.bias == m3.bias
        assert m1.hyperparams == m3.hyperparams

    def test_grid_fits_reach_the_reference_objective(self, resources, monkeypatch):
        fits = []

        def recording(X, y, **kwargs):
            model = train_linear_svc(X, y, **kwargs)
            fits.append((X, y, kwargs, model))
            return model

        monkeypatch.setattr(agelex.pipeline, "train_linear_svc", recording)
        run_grid(make_corpus(30, 30, seed=5), resources, ("lsvc",))
        assert len(fits) == 18
        for X, y, kwargs, model in fits:
            w, b = reference_sgd_svc(X, y)
            assert svc_objective(model.weights, model.bias, X, y, kwargs["C"]) \
                <= svc_objective(w, b, X, y, kwargs["C"])
            assert model.hyperparams["converged"] is True
            assert model.hyperparams["grad_norm"] <= kwargs["tolerance"]
            assert model.n_epochs == len(model.objective_history) - 1

    def test_iteration_cap_reports_not_converged(self):
        X, y = separable_blobs(6, gap=0.3)
        capped = train_linear_svc(X, y, max_epochs=1)
        assert capped.n_epochs == 1
        assert capped.hyperparams["converged"] is False
        assert capped.hyperparams["grad_norm"] > capped.hyperparams["tolerance"]
        assert train_linear_svc(X, y).hyperparams["converged"] is True

    def test_empty_active_set_keeps_the_step_finite(self):
        # every margin is 2, so no row is inside the margin and nothing
        # curves the objective along b: the step only shrinks w
        Xb = np.array([[-2.0, 1.0], [2.0, 1.0]])
        y = np.array([ADULT, CHILDREN])
        grad, step = _newton_step(Xb, y, np.array([1.0, 0.0]), 1.0)
        assert np.array_equal(grad, [1.0, 0.0])
        assert np.array_equal(step, [-1.0, 0.0])

    def test_nan_row_rejected_by_predict_many(self):
        model = LinearSvcModel(weights=np.array([1.0, 0.0]), bias=0.0,
                               hyperparams={}, objective_history=(0.0,), n_epochs=0)
        with pytest.raises(ModelError, match="non-finite"):
            model.predict_many(np.array([[np.nan, 0.0]]))

    def test_single_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(ModelError, match="single class"):
            train_linear_svc(X, np.array([CHILDREN] * 3))

    def test_nan_rejected(self):
        X = np.array([[np.nan, 0.0], [1.0, 1.0]])
        with pytest.raises(ModelError, match="non-finite"):
            train_linear_svc(X, np.array([ADULT, CHILDREN]))

    def test_dimension_mismatch_rejected(self):
        X, y = separable_blobs(5)
        model = train_linear_svc(X, y)
        with pytest.raises(ModelError):
            model.predict(np.array([1.0, 2.0, 3.0]))


class TestGini:
    def test_pure_node(self):
        assert gini_impurity((4, 0)) == 0.0

    def test_balanced_node(self):
        assert gini_impurity((2, 2)) == 0.5

    def test_empty_node(self):
        assert gini_impurity((0, 0)) == 0.0

    def test_bounded(self):
        assert 0.0 <= gini_impurity((3, 7)) <= 0.5


def reference_best_split(X, y01, idx, feats):
    """The split search one drawn feature at a time: the oracle for
    _best_splits, which searches a batch of nodes at once."""
    n = len(idx)
    best = None
    for f in feats:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y01[idx][order]
        distinct = np.nonzero(sv[1:] > sv[:-1])[0]
        if distinct.size == 0:
            continue
        pos_prefix = np.cumsum(sy)
        total_pos = pos_prefix[-1]
        ln = distinct + 1.0
        rn = n - ln
        lp = pos_prefix[distinct]
        rp = total_pos - lp
        gl = 1.0 - (lp ** 2 + (ln - lp) ** 2) / ln ** 2
        gr = 1.0 - (rp ** 2 + (rn - rp) ** 2) / rn ** 2
        weighted = (ln * gl + rn * gr) / n
        j = int(np.argmin(weighted))
        if best is None or weighted[j] < best[0]:
            lo, hi = sv[distinct[j]], sv[distinct[j] + 1]
            threshold = float((lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else lo)
            best = (float(weighted[j]), int(f), threshold)
    return best


def reference_block_split(X, y01, idx, feats):
    """The split search of reference_build_tree: all drawn features of one
    node at once, one sort of each column of the (len(idx), len(feats))
    block, ties to the first feature drawn and then the lowest threshold.
    The threshold is the midpoint of the cut, or its lower value where the
    midpoint rounds up to the upper one or overflows."""
    n = len(idx)
    vals = X[idx[:, None], feats]
    order = np.argsort(vals, axis=0)
    sv = np.sort(vals, axis=0)
    pos_prefix = np.cumsum(y01[idx][order], axis=0)
    ln = np.arange(1.0, n)[:, None]
    rn = n - ln
    lp = pos_prefix[:-1]
    rp = pos_prefix[-1] - lp
    gl = 1.0 - (lp ** 2 + (ln - lp) ** 2) / ln ** 2
    gr = 1.0 - (rp ** 2 + (rn - rp) ** 2) / rn ** 2
    weighted = np.where(sv[1:] > sv[:-1], (ln * gl + rn * gr) / n, np.inf).T
    k, j = divmod(int(weighted.argmin()), n - 1)
    if weighted[k, j] == np.inf:
        return None
    lo, hi = sv[j, k], sv[j + 1, k]
    threshold = float((lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else lo)
    return float(weighted[k, j]), int(feats[k]), threshold


def reference_build_tree(X, y01, rng, max_features) -> DecisionTree:
    """One tree grown on its own, depth first, on a bootstrap sample of
    the rows drawn from rng: the oracle for the lock-step forest."""
    n, p = X.shape
    bootstrap = rng.integers(0, n, size=n)
    X, y01 = X[bootstrap], y01[bootstrap]
    nodes: list[list] = []
    # (rows, parent index, slot of the parent's left (2) or right (3) child)
    stack = [(np.arange(n), -1, 2)]
    while stack:
        idx, parent, side = stack.pop()
        if parent >= 0:
            nodes[parent][side] = len(nodes)
        n_adult, n_children = np.bincount(y01[idx], minlength=2).tolist()
        split = None
        if len(idx) >= 2 and n_adult > 0 and n_children > 0:
            split = reference_block_split(X, y01, idx, rng.choice(p, size=max_features, replace=False))
        if split is None:
            nodes.append([-1, 0.0, -1, -1, n_children, n_adult])
            continue
        _, f, threshold = split
        mask = X[idx, f] <= threshold
        stack.append((idx[~mask], len(nodes), 3))
        stack.append((idx[mask], len(nodes), 2))
        nodes.append([f, threshold, -1, -1, n_children, n_adult])
    return DecisionTree.from_nodes(nodes, bootstrap)


def reference_forest(X, y, n_trees, seed) -> RandomForestModel:
    """The forest grown one tree at a time with reference_build_tree."""
    X = np.asarray(X, dtype=float)
    y01 = ((np.asarray(y) + 1) // 2).astype(np.int64)
    max_features = max(1, math.ceil(math.sqrt(X.shape[1])))
    tree_seeds = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=n_trees)
    trees = [reference_build_tree(X, y01, np.random.default_rng(int(s)), max_features)
             for s in tree_seeds]
    return RandomForestModel(trees=trees, n_features=X.shape[1],
                             hyperparams={"n_trees": n_trees, "seed": seed,
                                          "max_features": max_features})


def batched(X, y01, nodes, parts=None):
    """_best_splits on the nodes, searched as one batch or in the given
    consecutive parts, as plain tuples: (weighted impurity, feature,
    threshold, left rows, left children, right rows, right children)."""
    tables = _split_tables(X, y01)
    parts = parts or [nodes]
    return [None if s is None else (*s[:3], s[3][0].tolist(), s[3][1], s[4][0].tolist(), s[4][1])
            for part in parts for s in _best_splits(tables, part)]


def search(X, y01, idx, feats):
    """(weighted impurity, feature, threshold) of one node, or None."""
    split = batched(X, y01, [(idx, feats)])[0]
    return split and split[:3]


def small_int_matrix(draw, n, p):
    return np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=p, max_size=p),
                                  min_size=n, max_size=n)), dtype=float)


@st.composite
def split_problems(draw):
    """Small-integer matrices, so equal values and equal impurities are
    common, with a bootstrap-like idx and features in a random draw order."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 6))
    X = small_int_matrix(draw, n, p)
    y01 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=16)), dtype=np.int64)
    feats = np.array(draw(st.permutations(range(p)))[:draw(st.integers(1, p))], dtype=np.int64)
    return X, y01, idx, feats


@st.composite
def split_batches(draw):
    """One matrix and up to eight nodes, each with k drawn features, plus
    cut points that split the batch into consecutive parts."""
    n = draw(st.integers(2, 10))
    p = draw(st.integers(1, 6))
    k = draw(st.integers(1, p))
    X = small_int_matrix(draw, n, p)
    y01 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    nodes = [(np.array(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=12)), dtype=np.int64),
              np.array(draw(st.permutations(range(p)))[:k], dtype=np.int64))
             for _ in range(draw(st.integers(1, 8)))]
    cuts = sorted(set(draw(st.lists(st.integers(1, len(nodes)), max_size=3))))
    parts = [nodes[a:b] for a, b in zip([0] + cuts, cuts + [len(nodes)]) if a < b]
    return X, y01, nodes, parts


class TestSplitSearch:
    @settings(max_examples=150, deadline=None)
    @given(split_problems())
    def test_equals_one_feature_at_a_time(self, problem):
        assert search(*problem) == reference_best_split(*problem)

    @settings(max_examples=100, deadline=None)
    @given(split_batches())
    def test_a_node_ignores_its_batch(self, problem):
        X, y01, nodes, parts = problem
        together = batched(X, y01, nodes)
        assert together == batched(X, y01, nodes, parts)
        assert together == [batched(X, y01, [node])[0] for node in nodes]
        for (idx, feats), split in zip(nodes, together):
            assert (split and split[:3]) == reference_best_split(X, y01, idx, feats)
            if split:
                _, f, threshold, left, n_left, right, n_right = split
                goes_left = X[idx, f] <= threshold
                assert left == idx[goes_left].tolist() and right == idx[~goes_left].tolist()
                assert (n_left, n_right) == (y01[left].sum(), y01[right].sum())

    def test_ties_go_to_first_drawn_feature_then_lowest_threshold(self):
        # columns 0 and 2 are identical, and both cuts of either give
        # weighted impurity 1/3
        X = np.array([[0.0, 5.0, 0.0], [1.0, 5.0, 1.0], [2.0, 5.0, 2.0]])
        y01 = np.array([0, 1, 0])
        idx = np.arange(3)
        expected = (1 / 3, 2, 0.5)
        assert reference_best_split(X, y01, idx, np.array([1, 2, 0])) == expected
        assert search(X, y01, idx, np.array([1, 2, 0])) == expected
        assert search(X, y01, idx, np.array([0, 2]))[1:] == (0, 0.5)
        # both columns separate perfectly; the first drawn wins although
        # the other one's cut has the lower threshold
        X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
        y01 = np.array([0, 0, 1])
        assert search(X, y01, idx, np.array([0, 1])) == (0.0, 0, 1.5)
        assert search(X, y01, idx, np.array([1, 0])) == (0.0, 1, 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("lo, hi", [
        (1.0000000000000002, 1.0000000000000004),  # adjacent: the midpoint rounds up to hi
        (1e308, 1.7e308),                          # the midpoint overflows
    ])
    def test_threshold_separates_the_cut_values(self, lo, hi):
        X = np.array([[lo], [hi]])
        y01 = np.array([0, 1])
        assert search(X, y01, np.arange(2), np.array([0])) == (0.0, 0, lo)
        forest = train_random_forest(X, np.array([ADULT, CHILDREN]), n_trees=5, seed=0)
        assert forest.predict_many(X).tolist() == [ADULT, CHILDREN]
        assert forest.to_json_dict() == reference_forest(X, [ADULT, CHILDREN], 5, 0).to_json_dict()

    def test_nothing_separates(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert search(X, np.array([0, 1]), np.arange(2), np.array([1, 0])) is None


@st.composite
def forest_problems(draw):
    """Small-integer matrices with one column or more columns than rows,
    both classes, and at times a row repeated with the other label, so
    some nodes hold both classes and no cut."""
    n = draw(st.integers(2, 9))
    p = draw(st.sampled_from([1, 2, 3, n + 1, n + 4]))
    X = small_int_matrix(draw, n, p)
    y = draw(st.lists(st.sampled_from([ADULT, CHILDREN]), min_size=n, max_size=n))
    if len(set(y)) == 1:
        y[0] = -y[0]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        X = np.vstack([X, X[i]])
        y.append(-y[i])
    return X, np.array(y), draw(st.integers(1, 12)), draw(st.integers(0, 2 ** 32 - 1))


class TestRandomForest:
    @settings(max_examples=100, deadline=None)
    @given(forest_problems(), st.sampled_from([1, 40, 8192]))
    def test_equals_trees_grown_one_at_a_time(self, problem, batch_elements):
        X, y, n_trees, seed = problem
        with mock.patch.object(agelex.models, "_BATCH_ELEMENTS", batch_elements):
            forest = train_random_forest(X, y, n_trees=n_trees, seed=seed)
        assert forest.to_json_dict() == reference_forest(X, y, n_trees, seed).to_json_dict()

    def test_leaf_with_both_classes_when_nothing_separates(self):
        # rows 0 and 1 are equal but differ in label
        X = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        y = np.array([ADULT, CHILDREN, CHILDREN, ADULT])
        forest = train_random_forest(X, y, n_trees=12, seed=4)
        assert forest.to_json_dict() == reference_forest(X, y, 12, 4).to_json_dict()
        assert any(f == -1 and nc > 0 and na > 0 for tree in forest.trees
                   for f, nc, na in zip(tree.feature, tree.n_children, tree.n_adult))

    def test_grid_forests_equal_trees_grown_one_at_a_time(self, resources, monkeypatch):
        fits = []

        def recording(X, y, **kwargs):
            model = train_random_forest(X, y, **kwargs)
            fits.append((X, y, kwargs, model))
            return model

        monkeypatch.setattr(agelex.pipeline, "train_random_forest", recording)
        run_grid(make_corpus(20, 20, seed=5), resources, ("rf",))
        assert len(fits) == 18
        for X, y, kwargs, model in fits:
            assert model.to_json_dict() == reference_forest(X, y, **kwargs).to_json_dict()

    def test_working_memory_does_not_grow_with_tree_count(self):
        # the trees grow together, so an uncapped batch would hold every
        # tree's root rows at once (about 17 MB for 200 trees here); each
        # unfinished tree's own generator and pending rows take a few KB,
        # which the 1 MiB slack covers
        rng = np.random.default_rng(0)
        X = rng.integers(0, 4, size=(150, 312)).astype(float)
        y = np.where(rng.random(150) < 0.5, CHILDREN, ADULT)

        def working_bytes(n_trees):
            tracemalloc.start()
            try:
                model = train_random_forest(X, y, n_trees=n_trees, seed=1)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert model.n_trees == n_trees
            return peak - held

        train_random_forest(X, y, n_trees=1, seed=1)
        assert working_bytes(200) <= working_bytes(25) + 1024 * 1024

    def test_same_seed_bit_identical(self):
        X, y = separable_blobs(6, gap=0.6)
        f1 = train_random_forest(X, y, n_trees=15, seed=3)
        f2 = train_random_forest(X, y, n_trees=15, seed=3)
        assert len(f1.trees) == len(f2.trees)
        assert f1.to_json_dict()["trees"] == f2.to_json_dict()["trees"]

    def test_different_seeds_differ(self):
        X, y = separable_blobs(6, gap=0.6)
        f1 = train_random_forest(X, y, n_trees=5, seed=1)
        f2 = train_random_forest(X, y, n_trees=5, seed=2)
        assert any(not np.array_equal(t1.bootstrap, t2.bootstrap)
                   for t1, t2 in zip(f1.trees, f2.trees))

    def test_vote_fraction(self):
        X, y = separable_blobs(8)
        forest = train_random_forest(X, y, n_trees=9, seed=0)
        label, score = forest.predict(X[0])
        assert 0.5 <= score <= 1.0
        assert label in (CHILDREN, ADULT)

    def test_tie_resolves_to_children(self):
        always_children = DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                                       n_children=[3], n_adult=[1], bootstrap=np.array([0, 1]))
        always_adult = DecisionTree(feature=[-1], threshold=[0.0], left=[-1], right=[-1],
                                    n_children=[1], n_adult=[3], bootstrap=np.array([0, 1]))
        forest = RandomForestModel(trees=[always_children, always_adult], n_features=2)
        label, score = forest.predict(np.zeros(2))
        assert label == CHILDREN
        assert score == 0.5

    def test_single_tree_forest_equals_its_tree(self):
        X, y = separable_blobs(10, gap=0.8)
        forest = train_random_forest(X, y, n_trees=1, seed=5)
        tree = forest.trees[0]
        for row in X:
            walked = CHILDREN if _children_votes([tree], row.tolist()) else ADULT
            assert forest.predict(row)[0] == walked

    def test_training_accuracy_high_on_noiseless_data(self):
        X, y = separable_blobs(11, gap=1.5)
        forest = train_random_forest(X, y, n_trees=25, seed=1)
        pred = forest.predict_many(X)
        train_acc = float(np.mean(pred == y))
        assert train_acc == 1.0

    def test_default_tree_count(self):
        X, y = separable_blobs(12)
        assert train_random_forest(X, y).n_trees == 100

    def test_single_class_rejected(self):
        with pytest.raises(ModelError):
            train_random_forest(np.zeros((4, 2)), np.array([ADULT] * 4))


class TestPersistence:
    def test_svc_round_trip(self, tmp_path):
        X, y = separable_blobs(13)
        model = train_linear_svc(X, y)
        p = tmp_path / "m.json"
        save_model(model, p)
        loaded = load_model(p)
        rng = np.random.default_rng(0)
        probe = rng.normal(size=(100, 2))
        assert np.array_equal(loaded.predict_many(probe), model.predict_many(probe))
        assert np.array_equal(loaded.weights, model.weights)

    def test_svc_payload_without_convergence_fields_loads(self, tmp_path):
        # the layout written before the Newton solver recorded converged
        # and grad_norm
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "linear_svc", "model": {
            "weights": [1.0, -0.5], "bias": 0.25, "objective_history": [2.0, 1.5], "n_epochs": 1,
            "hyperparams": {"C": 1.0, "max_epochs": 200, "tolerance": 1e-05, "seed": 42}}}),
            encoding="utf-8")
        model = load_model(p)
        assert model.predict(np.array([0.0, 1.0])) == (ADULT, -0.25)
        assert np.array_equal(model.predict_many(np.array([[0.0, 1.0], [1.0, 0.0]])),
                              [ADULT, CHILDREN])

    def test_forest_round_trip(self, tmp_path):
        X, y = separable_blobs(14, gap=0.7)
        forest = train_random_forest(X, y, n_trees=7, seed=2)
        p = tmp_path / "f.json"
        save_model(forest, p)
        loaded = load_model(p)
        rng = np.random.default_rng(1)
        probe = rng.normal(size=(100, 2))
        assert np.array_equal(loaded.predict_many(probe), forest.predict_many(probe))
        assert loaded.to_json_dict()["trees"] == forest.to_json_dict()["trees"]

    def test_version_mismatch_names_both_versions(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"format_version": 99, "kind": "linear_svc", "model": {}}),
                     encoding="utf-8")
        with pytest.raises(ArtifactError, match=r"99.*1|1.*99"):
            load_model(p)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"format_version": 1, "kind": "lin', encoding="utf-8")
        with pytest.raises(ArtifactError, match="not a valid model file"):
            load_model(p)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "mystery", "model": {}}),
                     encoding="utf-8")
        with pytest.raises(ArtifactError, match="mystery"):
            load_model(p)

    # node = [feature, threshold, left, right, n_children, n_adult]
    @pytest.mark.parametrize("slot, value", [
        (2, 0),          # the root's left child is the root
        (3, "n_nodes"),  # a child past the last node
        (0, 2),          # a feature the two-feature forest does not have
    ], ids=["self-loop", "child-out-of-range", "feature-out-of-range"])
    def test_corrupt_forest_nodes_rejected(self, tmp_path, slot, value):
        X, y = separable_blobs(15, gap=0.7)
        p = tmp_path / "f.json"
        save_model(train_random_forest(X, y, n_trees=2, seed=3), p)
        payload = json.loads(p.read_text(encoding="utf-8"))
        nodes = payload["model"]["trees"][1]["nodes"]
        assert nodes[0][0] >= 0  # the root splits
        nodes[0][slot] = len(nodes) if value == "n_nodes" else value
        p.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError, match="tree 1 node 0"):
            load_model(p)

    def test_empty_forest_rejected(self, tmp_path):
        X, y = separable_blobs(16, gap=0.7)
        p = tmp_path / "f.json"
        save_model(train_random_forest(X, y, n_trees=2, seed=3), p)
        payload = json.loads(p.read_text(encoding="utf-8"))
        payload["model"]["trees"] = []
        p.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError, match="no trees"):
            load_model(p)

    def test_unregistered_object_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            save_model(object(), tmp_path / "x.json")
