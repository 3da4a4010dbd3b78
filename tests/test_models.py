"""Linear SVC, random forest and the versioned model files."""
import json
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction
from itertools import pairwise, product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import agelex.models
import agelex.pipeline
from agelex.errors import ArtifactError, ModelError
from agelex.models import (ADULT, CHILDREN, FORMAT_VERSION, DecisionTree,
                           LinearSvcModel, RandomForestModel, _best_splits,
                           _draw_features, _newton_step, _split_tables,
                           load_model, save_model, svc_objective,
                           train_linear_svc, train_random_forest)
from agelex.features import FAMILY_NAMES
from agelex.pipeline import Recipe, run_grid, train_pipeline
from agelex.synthetic import make_corpus
from agelex.vectorizer import fit_svd

from oracles import NESTED_TOO_DEEPLY, children_votes, gini_impurity


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


@pytest.fixture(scope="module")
def lsvc_grid_fits(resources):
    """For each of a grid's 18 lsvc fits: the scaled training matrix and
    the SVD fitted on it, the solver's inputs and model, the folded model
    the grid evaluates and the scaled test matrix it reads."""
    corpus = make_corpus(30, 30, seed=5)
    svds, solves, designs, folded = [], [], [], []

    def recording_svd(X, target):
        svds.append((X, fit_svd(X, target)))
        return svds[-1][1]

    def recording_svc(X, y, **kwargs):
        solves.append((X, y, kwargs, train_linear_svc(X, y, **kwargs)))
        return solves[-1][3]

    def recording_design(*args):
        designs.append(recipe_design(*args))
        return designs[-1]

    def recording_fit(*args):
        folded.append(fit_model(*args))
        return folded[-1]

    recipe_design, fit_model = agelex.pipeline._recipe_design, agelex.pipeline._fit_model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(agelex.pipeline, "fit_svd", recording_svd)
        mp.setattr(agelex.pipeline, "train_linear_svc", recording_svc)
        mp.setattr(agelex.pipeline, "_recipe_design", recording_design)
        mp.setattr(agelex.pipeline, "_fit_model", recording_fit)
        run_grid(corpus, resources, ("lsvc",))
    return [{"scaled": scaled, "svd": svd, "X": X, "y": y, "kwargs": kwargs, "model": model,
             "folded": folded_model, "scaled_test": scaled_test}
            for (scaled, svd), (X, y, kwargs, model), folded_model, (_, _, (_, scaled_test))
            in zip(svds, solves, folded, designs)]


class TestLinearSvc:
    def test_compares_by_identity(self):
        X, y = np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([ADULT, CHILDREN])
        first, second = train_linear_svc(X, y), train_linear_svc(X, y)
        assert (first == first, first == second) == (True, False)

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

    def test_deterministic(self):
        X, y = separable_blobs(4, gap=0.4)
        m1 = train_linear_svc(X, y)
        m2 = train_linear_svc(X, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias
        assert m1.hyperparams == m2.hyperparams

    def test_grid_fits_reach_the_reference_objective(self, lsvc_grid_fits):
        assert len(lsvc_grid_fits) == 18
        for fit in lsvc_grid_fits:
            X, y, kwargs, model = fit["X"], fit["y"], fit["kwargs"], fit["model"]
            w, b = reference_sgd_svc(X, y)
            assert svc_objective(model.weights, model.bias, X, y, kwargs["C"]) \
                <= svc_objective(w, b, X, y, kwargs["C"])
            assert model.hyperparams["converged"] is True
            assert model.hyperparams["grad_norm"] <= kwargs["tolerance"]
            assert model.n_epochs == len(model.objective_history) - 1

    def test_grid_fits_fold_the_svd_into_the_weights(self, lsvc_grid_fits):
        # the components are orthonormal, so ||C'w|| = ||w||, and the
        # margins do not change: the folded model keeps the objective
        assert len(lsvc_grid_fits) == 18
        for fit in lsvc_grid_fits:
            svd, model, folded = fit["svd"], fit["model"], fit["folded"]
            assert "svd" not in model.hyperparams and model.n_features == svd.k
            assert folded.hyperparams["svd"] == {"k": svd.k, "retained": svd.retained,
                                                 "target": svd.target}
            objective = svc_objective(folded.weights, folded.bias, fit["scaled"], fit["y"],
                                      fit["kwargs"]["C"])
            assert objective == pytest.approx(model.objective_history[-1], rel=1e-9, abs=0)
            for scaled in (fit["scaled"], fit["scaled_test"]):
                unfolded = svd.transform(scaled) @ model.weights + model.bias
                gap = np.abs(scaled @ folded.weights + folded.bias - unfolded)
                assert np.all(gap <= 1e-9 * np.maximum(1.0, np.abs(unfolded)))
                assert np.array_equal(folded.predict_many(scaled),
                                      model.predict_many(svd.transform(scaled)))

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

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.0])
    def test_c_must_be_positive_and_finite(self, C):
        X, y = separable_blobs(5)
        with pytest.raises(ModelError, match="C must be positive and finite"):
            train_linear_svc(X, y, C=C)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0, math.inf])
    def test_tolerance_must_be_non_negative_and_finite(self, tolerance):
        X, y = separable_blobs(5)
        with pytest.raises(ModelError, match="tolerance must be >= 0 and finite"):
            train_linear_svc(X, y, tolerance=tolerance)

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


def cut_fraction(ln, lp, rn, rp) -> Fraction:
    """Weighted Gini impurity, as an exact fraction, of a cut sending ln
    rows, lp of them children, left and rn rows, rp of them children,
    right: (ln gini_left + rn gini_right) / (ln + rn), where a side of s
    rows and c children has gini 2 c (s - c) / s^2."""
    return (Fraction(2 * lp * (ln - lp), ln) + Fraction(2 * rp * (rn - rp), rn)) / (ln + rn)


def cut_impurity(y01, goes_left) -> Fraction:
    """Weighted Gini impurity of sending the rows goes_left marks left, as
    an exact fraction; it is the weighted oracle gini_impurity up to
    rounding."""
    n, ln, lp = len(y01), int(goes_left.sum()), int(y01[goes_left].sum())
    rn, rp = n - ln, int(y01.sum()) - lp
    weighted = cut_fraction(ln, lp, rn, rp)
    assert math.isclose(weighted, (ln * gini_impurity((lp, ln - lp)) + rn * gini_impurity((rp, rn - rp))) / n,
                        abs_tol=1e-12)
    return weighted


def reference_best_split(X, y01, idx, feats):
    """The split search one drawn feature at a time, one cut at a time, in
    exact fractions: the oracle for _best_splits, which searches a batch of
    nodes at once.  Ties go to the first feature drawn, then the lowest
    threshold."""
    labels = y01[idx]
    best = None
    for f in feats:
        vals = X[idx, f]
        for lo, hi in pairwise(sorted(set(vals.tolist()))):
            goes_left = vals <= lo
            impurity = cut_impurity(labels, goes_left)
            if best is None or impurity < best[0]:
                threshold = (lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else lo
                best = (impurity, int(f), threshold)
    return best


def reference_block_split(X, y01, idx, feats):
    """The split search of reference_build_tree: all drawn features of one
    node at once, one sort of each column of the (len(idx), len(feats))
    block, and each cut's impurity as an exact fraction; ties go to the
    first feature drawn and then the lowest threshold.  The threshold is
    the midpoint of the cut, or its lower value where the midpoint rounds
    up to the upper one or overflows."""
    n = len(idx)
    vals = X[idx[:, None], feats]
    order = np.argsort(vals, axis=0)
    sv = np.sort(vals, axis=0)
    pos_prefix = np.cumsum(y01[idx][order], axis=0).T.tolist()
    total = pos_prefix[0][-1]
    best = None
    for slot, f in enumerate(feats.tolist()):
        for j in np.flatnonzero(sv[1:, slot] > sv[:-1, slot]).tolist():
            lp = pos_prefix[slot][j]
            impurity = cut_fraction(j + 1, lp, n - j - 1, total - lp)
            if best is None or impurity < best[0]:
                best = (impurity, f, j, slot)
    if best is None:
        return None
    impurity, f, j, slot = best
    lo, hi = sv[j, slot], sv[j + 1, slot]
    threshold = float((lo + hi) / 2.0 if (lo + hi) / 2.0 < hi else lo)
    return impurity, f, threshold


_M64 = 2 ** 64 - 1


def splitmix64(key: int, output: int) -> int:
    """Output `output` (counting from 1) of the SplitMix64 generator
    seeded with key, in Python integers."""
    z = (key + output * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def reference_draw(key: int, p: int, k: int) -> list[int]:
    """The features a node with this key draws: Floyd's algorithm on
    outputs 3 to k + 2 of its stream picks k of range(p), each output r
    choosing from range(b) as ((r >> 32) * b) >> 32, and outputs k + 3 to
    2k + 2 order them (a stable sort)."""
    sample = []
    for i, j in enumerate(range(p - k, p)):
        pick = ((splitmix64(key, 3 + i) >> 32) * (j + 1)) >> 32
        sample.append(j if pick in sample else pick)
    order = sorted(range(k), key=lambda i: splitmix64(key, 3 + k + i))
    return [sample[i] for i in order]


def tree_bootstrap(seed, n) -> np.ndarray:
    """The bootstrap sample of a tree with this seed on n rows: n row
    indices drawn with replacement by a generator seeded with seed."""
    return np.random.default_rng(seed).integers(0, n, size=n)


def reference_build_tree(X, y01, seed, max_features) -> DecisionTree:
    """One tree grown on its own, depth first, on tree_bootstrap(seed):
    the oracle for the level-wise forest.  The root's key is seed; output
    1 of a node's stream keys its left child, output 2 its right child.
    Nodes are in pre-order."""
    n, p = X.shape
    bootstrap = tree_bootstrap(seed, n)
    X, y01 = X[bootstrap], y01[bootstrap]
    nodes: list[list] = []
    # (rows, key, parent index, slot of the parent's left (2) or right (3) child)
    stack = [(np.arange(n), seed, -1, 2)]
    while stack:
        idx, key, parent, side = stack.pop()
        if parent >= 0:
            nodes[parent][side] = len(nodes)
        n_adult, n_children = np.bincount(y01[idx], minlength=2).tolist()
        split = None
        if n_adult > 0 and n_children > 0:
            split = reference_block_split(X, y01, idx, np.array(reference_draw(key, p, max_features)))
        if split is None:
            nodes.append([-1, 0.0, -1, -1, n_children, n_adult])
            continue
        _, f, threshold = split
        mask = X[idx, f] <= threshold
        stack.append((idx[~mask], splitmix64(key, 2), len(nodes), 3))
        stack.append((idx[mask], splitmix64(key, 1), len(nodes), 2))
        nodes.append([f, threshold, -1, -1, n_children, n_adult])
    return tree_from_nodes(nodes)


def tree_from_nodes(nodes) -> DecisionTree:
    """A tree's column arrays from its list of node six-tuples."""
    feature, threshold, *ints = zip(*nodes)
    return DecisionTree(np.array(feature, np.int64), np.array(threshold, float),
                        *(np.array(column, np.int64) for column in ints))


def tree_seeds(seed, n_trees) -> list[int]:
    return np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=n_trees).tolist()


def reference_forest(X, y, n_trees, seed) -> RandomForestModel:
    """The forest grown one tree at a time with reference_build_tree."""
    X = np.asarray(X, dtype=float)
    y01 = ((np.asarray(y) + 1) // 2).astype(np.int64)
    max_features = max(1, math.ceil(math.sqrt(X.shape[1])))
    trees = [reference_build_tree(X, y01, s, max_features) for s in tree_seeds(seed, n_trees)]
    return RandomForestModel(trees=trees, n_features=X.shape[1],
                             hyperparams={"n_trees": n_trees, "seed": seed, "max_features": max_features,
                                          "feature_draws": "path-splitmix64-floyd"})


def in_level_order(forest: RandomForestModel) -> dict:
    """The forest's JSON payload with each tree's nodes renumbered level
    by level, each level in the order of the parents, left child first."""
    payload = forest.to_json_dict()
    for tree in payload["trees"]:
        nodes, order = tree["nodes"], [0]
        for i in order:  # grows while it is read: a breadth-first walk
            if nodes[i][0] >= 0:
                order += nodes[i][2:4]
        new = {old: i for i, old in enumerate(order)}
        new[-1] = -1
        tree["nodes"] = [[f, t, new[left], new[right], nc, na]
                         for f, t, left, right, nc, na in map(nodes.__getitem__, order)]
    return payload


def batched(X, y01, nodes, parts=None):
    """_best_splits on the nodes, searched as one chunk or in the given
    consecutive parts, as plain tuples: None where nothing separates,
    else (feature, threshold, left rows, left children, right rows,
    right children)."""
    tables = _split_tables(X, y01)
    out = []
    for part in parts or [nodes]:
        rows = np.concatenate([r for r, _ in part])
        offsets = np.cumsum([0] + [len(r) for r, _ in part])
        feature, threshold, child_rows, child_counts = _best_splits(
            tables, rows, offsets, np.array([feats for _, feats in part]))
        assert len(child_counts) == 2 * np.count_nonzero(feature >= 0)
        ends = np.cumsum(child_counts.sum(axis=1))
        children = iter(zip(np.split(child_rows, ends[:-1]), child_counts[:, 1].tolist()))
        for f, t in zip(feature.tolist(), threshold.tolist()):
            if f < 0:
                assert t == 0.0
                out.append(None)
            else:
                (left, n_left), (right, n_right) = next(children), next(children)
                out.append((f, t, left.tolist(), n_left, right.tolist(), n_right))
    return out


def search(X, y01, idx, feats):
    """(feature, threshold) of one node, or None."""
    split = batched(X, y01, [(idx, feats)])[0]
    return split and split[:2]


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


def block_profiles(n):
    """Every column of n values up to the order of the rows: its runs of
    equal values in increasing order, each as (rows, children among them)."""
    if n == 0:
        yield ()
        return
    for size in range(1, n + 1):
        for children in range(size + 1):
            for rest in block_profiles(n - size):
                yield ((size, children),) + rest


def profile_column(profile):
    """(labels, values) of a column with this block profile: each run's
    children and then its adults, each row valued by its run's number."""
    labels = [label for size, children in profile for label in [1] * children + [0] * (size - children)]
    return np.array(labels), np.repeat(np.arange(len(profile)), [size for size, _ in profile]).astype(float)


def two_column_node(first, second):
    """(X, y01) of a node whose columns 0 and 1 have the block profiles
    first and second, which hold the same number of children."""
    y01, X0 = profile_column(first)
    labels, values = profile_column(second)
    X1 = np.zeros(len(y01))
    for label in (0, 1):
        X1[y01 == label] = values[labels == label]
    return np.stack([X0, X1], axis=1), y01


def profile_best_cut(profile):
    """(impurity, threshold) of the first lowest-impurity cut of a column
    with this block profile, or None for a single run."""
    n, total = sum(size for size, _ in profile), sum(children for _, children in profile)
    best, ln, lp = None, 0, 0
    for value, (size, children) in enumerate(profile[:-1]):
        ln, lp = ln + size, lp + children
        impurity = cut_fraction(ln, lp, n - ln, total - lp)
        if best is None or impurity < best[0]:
            best = (impurity, value + 0.5)
    return best


class TestSplitSearch:
    @settings(max_examples=150, deadline=None)
    @given(split_problems())
    def test_equals_one_feature_at_a_time(self, problem):
        reference = reference_best_split(*problem)
        assert search(*problem) == (reference and reference[1:])

    @settings(max_examples=100, deadline=None)
    @given(split_batches())
    def test_a_node_ignores_its_batch(self, problem):
        X, y01, nodes, parts = problem
        together = batched(X, y01, nodes)
        assert together == batched(X, y01, nodes, parts)
        assert together == [batched(X, y01, [node])[0] for node in nodes]
        for (idx, feats), split in zip(nodes, together):
            reference = reference_best_split(X, y01, idx, feats)
            assert (split and split[:2]) == (reference and reference[1:])
            if split:
                f, threshold, left, n_left, right, n_right = split
                goes_left = X[idx, f] <= threshold
                assert left == idx[goes_left].tolist() and right == idx[~goes_left].tolist()
                assert (n_left, n_right) == (y01[left].sum(), y01[right].sum())

    def test_ties_go_to_first_drawn_feature_then_lowest_threshold(self):
        # columns 0 and 2 are identical, and both cuts of either give
        # weighted impurity 1/3
        X = np.array([[0.0, 5.0, 0.0], [1.0, 5.0, 1.0], [2.0, 5.0, 2.0]])
        y01 = np.array([0, 1, 0])
        idx = np.arange(3)
        assert reference_best_split(X, y01, idx, np.array([1, 2, 0])) == (Fraction(1, 3), 2, 0.5)
        assert search(X, y01, idx, np.array([1, 2, 0])) == (2, 0.5)
        assert search(X, y01, idx, np.array([0, 2])) == (0, 0.5)
        # both columns separate perfectly; the first drawn wins although
        # the other one's cut has the lower threshold
        X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
        y01 = np.array([0, 0, 1])
        assert search(X, y01, idx, np.array([0, 1])) == (0, 1.5)
        assert search(X, y01, idx, np.array([1, 0])) == (1, 0.5)

    def test_every_small_node_splits_at_its_exact_best_cut(self):
        # every node of 2 to 6 rows and two drawn columns, up to the order
        # of its rows and to increasing maps of each column, since the cut
        # depends only on each column's runs of equal values and the labels
        # in them; both draw orders, as each pair comes in either order
        for n in range(2, 7):
            groups = {}
            for profile in block_profiles(n):
                groups.setdefault(sum(children for _, children in profile), []).append(profile)
            for profiles in groups.values():
                labels, values = map(np.array, zip(*map(profile_column, profiles)))
                # pair (i, j): column 0 and the labels of profile i, and in
                # column 1 profile j's values of children and of adults
                # given to profile i's children and adults, in order
                order = np.argsort(-labels, axis=1, kind="stable")
                inverse = np.argsort(order, axis=1)
                g = len(profiles)
                X = np.stack([np.repeat(values, g, axis=0),
                              np.take_along_axis(values, order, axis=1)[:, inverse].swapaxes(0, 1).reshape(-1, n)],
                             axis=2).reshape(-1, 2)
                y01 = np.repeat(labels, g, axis=0).ravel()
                tables = _split_tables(X, y01)
                got = []
                for a in range(0, g * g, 400):
                    m = min(400, g * g - a)
                    feature, threshold, _, _ = _best_splits(tables, np.arange(a * n, (a + m) * n),
                                                            np.arange(m + 1) * n, np.tile([0, 1], (m, 1)))
                    got += zip(feature.tolist(), threshold.tolist())
                best = list(map(profile_best_cut, profiles))
                for (i, j), split in zip(product(range(g), repeat=2), got):
                    cuts = [(cut[0], f, cut[1]) for f, cut in enumerate((best[i], best[j])) if cut]
                    # min keeps the first of equal impurities: column 0, drawn first
                    expected = min(cuts, key=lambda cut: cut[0])[1:] if cuts else (-1, 0.0)
                    assert split == expected, (profiles[i], profiles[j])

    def test_a_tie_that_floats_broke_goes_to_the_first_drawn_feature(self):
        # a node of a forest of the perfbench experiment grid (seed 7,
        # condition grammatical, tree 52): 16 rows, 4 of them children.
        # The drawn column 0 sends 10 rows with all 4 children left, column
        # 1 sends 15 rows with 3 children left; both cuts have weighted
        # Gini 3/10, but the float expression gave the second
        # 0.29999999999999993 and the first 0.3, so the split went to
        # column 1
        y01 = np.array([1] * 4 + [0] * 12)
        X = np.zeros((16, 2))
        X[10:, 0] = 1.0
        X[3, 1] = 1.0
        idx = np.arange(16)
        assert cut_impurity(y01, X[:, 0] <= 0) == cut_impurity(y01, X[:, 1] <= 0) == Fraction(3, 10)
        assert search(X, y01, idx, np.array([0, 1])) == (0, 0.5)
        assert search(X, y01, idx, np.array([1, 0])) == (1, 0.5)

    @pytest.mark.parametrize("n, n_children, first, second", [
        (8000, 4001, (3001, 1499), (2999, 1498)),     # cross products in int64
        (20000, 10017, (5295, 2652), (1176, 589)),    # beyond int64: Python integers
    ])
    def test_a_large_node_compares_cuts_exactly(self, n, n_children, first, second):
        # found by brute-force search: the second cut has the lower
        # impurity, but both cuts' g = lp^2/ln + rp^2/rn round to the same
        # float, so a float search would take the first drawn
        def g(ln, lp):
            rn, rp = n - ln, n_children - lp
            return lp * (lp / ln) + rp * (rp / rn)

        assert g(*first) == g(*second)
        assert (cut_fraction(*second, n - second[0], n_children - second[1])
                < cut_fraction(*first, n - first[0], n_children - first[1]))
        X, y01 = two_column_node(((first[0], first[1]), (n - first[0], n_children - first[1])),
                                 ((second[0], second[1]), (n - second[0], n_children - second[1])))
        assert search(X, y01, np.arange(n), np.array([0, 1])) == (1, 0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("lo, hi", [
        (1.0000000000000002, 1.0000000000000004),  # adjacent: the midpoint rounds up to hi
        (1e308, 1.7e308),                          # the midpoint overflows
    ])
    def test_threshold_separates_the_cut_values(self, lo, hi):
        X = np.array([[lo], [hi]])
        y01 = np.array([0, 1])
        assert search(X, y01, np.arange(2), np.array([0])) == (0, lo)
        forest = train_random_forest(X, np.array([ADULT, CHILDREN]), n_trees=5, seed=0)
        assert forest.predict_many(X).tolist() == [ADULT, CHILDREN]
        assert forest.to_json_dict() == in_level_order(reference_forest(X, [ADULT, CHILDREN], 5, 0))

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


class TestFeatureDraws:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=5), st.integers(1, 400), st.data())
    def test_k_distinct_features_as_the_reference_draws(self, keys, p, data):
        k = data.draw(st.integers(1, min(p, 25)))
        drawn = _draw_features(np.array(keys, dtype=np.uint64), p, k)
        assert drawn.shape == (len(keys), k)
        for key, row in zip(keys, drawn.tolist()):
            assert len(set(row)) == k and 0 <= min(row) and max(row) < p
            assert row == reference_draw(key, p, k)

    def test_each_feature_is_as_likely_in_each_place(self):
        # 12,000 nodes draw 3 of 7 features.  Each (place, feature) pair is
        # expected 1,714.3 times, standard deviation 38.3, and each feature
        # 5,142.9 times, standard deviation 54.2; the bounds are about 5.2
        # standard deviations.  A skewed pick, a slip in Floyd's steps or a
        # missing shuffle moves some count by hundreds.
        drawn = _draw_features(np.arange(12_000, dtype=np.uint64), 7, 3)
        by_place = np.stack([np.bincount(drawn[:, s], minlength=7) for s in range(3)])
        assert np.abs(by_place - 12_000 / 7).max() < 200
        assert np.abs(by_place.sum(axis=0) - 3 * 12_000 / 7).max() < 280

    def test_no_overflow_warning(self):
        # the generator wraps around 2**64 on purpose
        keys = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
        X, y = separable_blobs(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _draw_features(keys, 300, 18)
            train_random_forest(X, y, n_trees=3, seed=2 ** 63)


# thresholds the drawn rows fall on, below or above
_CUTS = [0.0, 0.25, 0.5, 1.0]


@st.composite
def forest_tree_nodes(draw):
    """The node six-tuples of one tree over 3 features: a single leaf, a
    chain whose nodes each send both ways to the next, as deep as it has
    nodes less one, or nodes whose children are any later nodes, so that
    two parents can share a child (a file may hold such a tree)."""
    kind = draw(st.sampled_from(["leaf", "chain", "shared"]))
    n = 1 if kind == "leaf" else draw(st.integers(2, 12))
    nodes = []
    for i in range(n):
        counts = [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
        if i == n - 1 or (kind == "shared" and draw(st.integers(0, 3)) == 0):
            nodes.append([-1, 0.0, -1, -1] + counts)
            continue
        children = ([i + 1, i + 1] if kind == "chain"
                    else [draw(st.integers(i + 1, n - 1)), draw(st.integers(i + 1, n - 1))])
        nodes.append([draw(st.integers(0, 2)), draw(st.sampled_from(_CUTS))] + children + counts)
    return nodes


class TestRandomForest:
    @settings(max_examples=100, deadline=None)
    @given(forest_problems(), st.sampled_from([1, 40, 8192]))
    def test_equals_trees_grown_one_at_a_time(self, problem, batch_elements):
        X, y, n_trees, seed = problem
        with mock.patch.object(agelex.models, "_BATCH_ELEMENTS", batch_elements):
            forest = train_random_forest(X, y, n_trees=n_trees, seed=seed)
        assert forest.to_json_dict() == in_level_order(reference_forest(X, y, n_trees, seed))

    def test_leaf_with_both_classes_when_nothing_separates(self):
        # rows 0 and 1 are equal but differ in label
        X = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
        y = np.array([ADULT, CHILDREN, CHILDREN, ADULT])
        forest = train_random_forest(X, y, n_trees=12, seed=4)
        assert forest.to_json_dict() == in_level_order(reference_forest(X, y, 12, 4))
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
            assert model.to_json_dict() == in_level_order(reference_forest(X, y, **kwargs))

    @settings(max_examples=60, deadline=None)
    @given(forest_problems())
    def test_every_split_is_the_best_cut_of_its_draws(self, problem):
        # follow each node's rows and key from the root: every node is
        # reached from a parent before it, and nothing is left unreached
        X, y, n_trees, seed = problem
        forest = train_random_forest(X, y, n_trees=n_trees, seed=seed)
        y01 = (y + 1) // 2
        k = forest.hyperparams["max_features"]
        for tree, key in zip(forest.trees, tree_seeds(seed, n_trees)):
            reached = {0: (tree_bootstrap(key, len(X)), key)}
            for i in range(tree.n_nodes):
                rows, key = reached.pop(i)
                labels = y01[rows]
                assert (tree.n_children[i], tree.n_adult[i]) == (labels.sum(), len(rows) - labels.sum())
                # every cut of the drawn features, in draw order, then by threshold
                cuts = [(cut_impurity(labels, X[rows, f] <= lo), f, lo, hi)
                        for f in reference_draw(key, X.shape[1], k)
                        for lo, hi in pairwise(sorted(set(X[rows, f].tolist())))]
                if tree.feature[i] < 0:
                    assert labels.min() == labels.max() or not cuts
                    continue
                assert labels.min() < labels.max()
                best = min(cut[0] for cut in cuts)
                _, f, lo, hi = next(cut for cut in cuts if cut[0] == best)
                assert (tree.feature[i], tree.threshold[i]) == (f, (lo + hi) / 2)
                assert i < tree.left[i] < tree.right[i]
                goes_left = X[rows, f] <= tree.threshold[i]
                reached[tree.left[i]] = rows[goes_left], splitmix64(key, 1)
                reached[tree.right[i]] = rows[~goes_left], splitmix64(key, 2)
            assert not reached

    def test_tree_count_and_chunk_size_do_not_change_a_tree(self):
        X, y = separable_blobs(9, gap=0.3)
        with mock.patch.object(agelex.models, "_BATCH_ELEMENTS", 1):
            few = train_random_forest(X, y, n_trees=3, seed=8)
        many = train_random_forest(X, y, n_trees=9, seed=8)
        assert few.to_json_dict()["trees"] == many.to_json_dict()["trees"][:3]

    def test_chunks_hold_at_most_the_element_limit(self):
        X, y = separable_blobs(9, gap=0.3)
        chunks = []

        def recording(tables, rows, offsets, feats):
            chunks.append((len(rows) * feats.shape[1], len(feats)))
            return _best_splits(tables, rows, offsets, feats)

        # a root holds 60 rows and draws 2 features, 120 elements
        with mock.patch.object(agelex.models, "_BATCH_ELEMENTS", 100), \
                mock.patch.object(agelex.models, "_best_splits", recording):
            train_random_forest(X, y, n_trees=20, seed=3)
        assert all(elements <= 100 or nodes == 1 for elements, nodes in chunks)
        assert any(elements > 100 for elements, _ in chunks) and any(nodes > 1 for _, nodes in chunks)

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

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        X, y = separable_blobs(2)
        with pytest.raises(ModelError, match="seed must be a non-negative integer"):
            train_random_forest(X, y, n_trees=2, seed=seed)

    @pytest.mark.parametrize("n_trees", [0, True, 1.5, "3", None])
    def test_tree_count_must_be_a_positive_integer(self, n_trees):
        X, y = separable_blobs(2)
        with pytest.raises(ModelError, match="n_trees must be an integer of at least 1"):
            train_random_forest(X, y, n_trees=n_trees, seed=1)

    def test_numpy_integer_tree_count_is_saved_as_an_integer(self, tmp_path):
        X, y = separable_blobs(2)
        forest = train_random_forest(X, y, n_trees=np.int64(2), seed=3)
        assert type(forest.hyperparams["n_trees"]) is int
        assert forest.to_json_dict() == train_random_forest(X, y, n_trees=2, seed=3).to_json_dict()
        save_model(forest, tmp_path / "forest.json")
        loaded = load_model(tmp_path / "forest.json")
        assert loaded.hyperparams["n_trees"] == loaded.n_trees == 2

    def test_numpy_integer_seed_is_saved_as_an_integer(self, tmp_path):
        X, y = separable_blobs(2)
        forest = train_random_forest(X, y, n_trees=2, seed=np.int64(3))
        assert forest.to_json_dict() == train_random_forest(X, y, n_trees=2, seed=3).to_json_dict()
        save_model(forest, tmp_path / "forest.json")
        assert load_model(tmp_path / "forest.json").hyperparams["seed"] == 3

    def test_fits_with_equal_draws_share_one_read_only_bootstrap(self):
        X, y = separable_blobs(9, gap=0.3)
        draws = agelex.models._bootstraps
        draws.cache_clear()
        # -X has the row count of X, so its fit reuses the draw; one row
        # fewer, then another seed, draws afresh
        for X_, y_, seed in [(X, y, 3), (-X, y, 3), (X[1:], y[1:], 3), (X[1:], y[1:], 4)]:
            forest = train_random_forest(X_, y_, n_trees=6, seed=seed)
            assert forest.to_json_dict() == in_level_order(reference_forest(X_, y_, 6, seed))
        assert draws.cache_info()[:2] == (1, 3)  # hits, misses
        seeds, rows = draws(4, 6, len(X) - 1)
        assert draws.cache_info().hits == 2
        assert seeds.tolist() == tree_seeds(4, 6)
        assert rows.tolist() == np.concatenate([tree_bootstrap(s, len(X) - 1) for s in seeds.tolist()]).tolist()
        for array in (seeds, rows):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

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
        assert all(tree.n_nodes > 1 for tree in f1.trees + f2.trees)
        assert f1.to_json_dict()["trees"] != f2.to_json_dict()["trees"]

    def test_vote_fraction(self):
        X, y = separable_blobs(8)
        forest = train_random_forest(X, y, n_trees=9, seed=0)
        label, score = forest.predict(X[0])
        assert 0.5 <= score <= 1.0
        assert label in (CHILDREN, ADULT)

    def test_tie_resolves_to_children(self):
        always_children = tree_from_nodes([[-1, 0.0, -1, -1, 3, 1]])
        always_adult = tree_from_nodes([[-1, 0.0, -1, -1, 1, 3]])
        forest = RandomForestModel(trees=[always_children, always_adult], n_features=2)
        label, score = forest.predict(np.zeros(2))
        assert label == CHILDREN
        assert score == 0.5

    def test_single_tree_forest_equals_its_tree(self):
        X, y = separable_blobs(10, gap=0.8)
        forest = train_random_forest(X, y, n_trees=1, seed=5)
        tree = forest.trees[0]
        for row in X:
            walked = CHILDREN if children_votes([tree], row.tolist()) else ADULT
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

    @settings(max_examples=150, deadline=None)
    @given(nodes=st.lists(forest_tree_nodes(), min_size=1, max_size=5),
           rows=st.lists(st.lists(st.sampled_from(_CUTS + [-1.0, 2.0]), min_size=3, max_size=3),
                         min_size=2, max_size=12),
           block=st.integers(1, 3))
    @example(nodes=[[[1, 1.0, 4, 3, 3, 0], [0, 0.25, 5, 2, 0, 3], [-1, 0.0, -1, -1, 1, 1],
                     [2, 0.0, 4, 6, 1, 0], [-1, 0.0, -1, -1, 1, 0], [-1, 0.0, -1, -1, 1, 3],
                     [-1, 0.0, -1, -1, 1, 2]]],
             rows=[[0.0, 2.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 0.0]], block=2)
    def test_votes_are_the_reference_walk(self, nodes, rows, block):
        # single-leaf trees, chains as deep as their node count and trees
        # whose nodes share children, built and loaded from a file; rows
        # that fall on the cuts, in blocks of `block` rows and a rest
        forest = RandomForestModel(trees=[tree_from_nodes(tree) for tree in nodes], n_features=3)
        with tempfile.TemporaryDirectory() as folder:
            save_model(forest, Path(folder) / "forest.json")
            loaded = load_model(Path(folder) / "forest.json")
        X = np.array(rows + rows[:block])  # more rows than one block
        for model in (forest, loaded):
            walked = [children_votes(model.trees, row) for row in X.tolist()]
            with mock.patch.object(agelex.models, "_VOTE_DECISIONS",
                                   block * sum(map(len, nodes))):
                assert model._votes(X).tolist() == walked
                labels = model.predict_many(X).tolist()
            for row, label, votes in zip(X, labels, walked):
                expected = ((CHILDREN, votes / len(nodes)) if 2 * votes >= len(nodes)
                            else (ADULT, (len(nodes) - votes) / len(nodes)))
                assert model.predict(row) == expected
                assert label == expected[0]

    def test_votes_of_a_deep_shared_chain_are_bounded(self):
        # every node's two children are the next node: 400 levels, one
        # node each, which a level-by-level walk must not count twice
        chain = [[0, 0.5, i + 1, i + 1, 0, 0] for i in range(399)] + [[-1, 0.0, -1, -1, 1, 0]]
        forest = RandomForestModel(trees=[tree_from_nodes(chain)], n_features=1)
        assert forest._nodes[-1] == 399
        assert forest.predict_many(np.array([[0.0], [1.0]])).tolist() == [CHILDREN, CHILDREN]


@pytest.mark.parametrize("train", [train_linear_svc, train_random_forest])
def test_matrix_without_columns_rejected(train):
    with pytest.raises(ModelError, match="training matrix has no columns"):
        train(np.zeros((4, 0)), np.array([ADULT, CHILDREN] * 2))


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

    def test_unserializable_model_leaves_the_file_as_it_was(self, tmp_path):
        X, y = separable_blobs(13)
        model = train_linear_svc(X, y)
        model.hyperparams["note"] = object()
        p = tmp_path / "m.json"
        p.write_bytes(b"an earlier model\n")
        with pytest.raises(TypeError):
            save_model(model, p)
        assert p.read_bytes() == b"an earlier model\n"

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

    def test_forest_columns_are_the_same_arrays_after_fit_and_after_load(self, tmp_path):
        X, y = separable_blobs(14, gap=0.7)
        forest = train_random_forest(X, y, n_trees=7, seed=2)
        save_model(forest, tmp_path / "f.json")
        loaded = load_model(tmp_path / "f.json")
        assert len(loaded.trees) == len(forest.trees) == 7
        for fitted, read in zip(forest.trees, loaded.trees):
            for column in fields(DecisionTree):
                a, b = getattr(fitted, column.name), getattr(read, column.name)
                dtype = np.float64 if column.name == "threshold" else np.int64
                assert type(a) is type(b) is np.ndarray and a.dtype == b.dtype == dtype
                assert np.array_equal(a, b)

    def test_grid_forest_saves_back_byte_identically(self, resources, tmp_path):
        # the baseline+all forest of a grid, 100 trees, inside its pipeline
        trained = train_pipeline(make_corpus(20, 20, seed=5), resources,
                                 Recipe(True, tuple(FAMILY_NAMES), False), "rf")
        assert trained.model.n_trees == 100
        p, again = tmp_path / "f.json", tmp_path / "again.json"
        save_model(trained, p)
        save_model(load_model(p), again)
        assert again.read_bytes() == p.read_bytes()

    def test_forest_file_holds_only_nodes_and_saves_back_identically(self, tmp_path):
        X, y = separable_blobs(14, gap=0.7)
        p, again = tmp_path / "f.json", tmp_path / "again.json"
        save_model(train_random_forest(X, y, n_trees=7, seed=2), p)
        trees = json.loads(p.read_text(encoding="utf-8"))["model"]["trees"]
        assert len(trees) == 7 and all(tree.keys() == {"nodes"} for tree in trees)
        save_model(load_model(p), again)
        assert again.read_bytes() == p.read_bytes()

    def test_forest_file_without_feature_draws_loads(self, tmp_path):
        # the layout written before the level-wise forest: nodes in
        # pre-order, no feature_draws entry and a bootstrap list per tree.
        # Loading ignores the lists, valid, malformed or absent.
        first = [[0, 0.5, 1, 4, 2, 2], [1, 0.5, 2, 3, 1, 1], [-1, 0.0, -1, -1, 0, 1],
                 [-1, 0.0, -1, -1, 1, 0], [-1, 0.0, -1, -1, 1, 1]]
        second = [[1, 0.5, 1, 2, 2, 2], [-1, 0.0, -1, -1, 0, 2], [-1, 0.0, -1, -1, 2, 0]]
        hyperparams = {"n_trees": 2, "seed": 42, "max_features": 2}
        expected = RandomForestModel(trees=[tree_from_nodes(first), tree_from_nodes(second)],
                                     n_features=2, hyperparams=hyperparams)
        save_model(expected, tmp_path / "expected.json")
        probe = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        assert expected.predict_many(probe).tolist() == [ADULT, CHILDREN, CHILDREN, CHILDREN]
        for bootstraps in [
            [[0, 1, 2, 3], [3, 3, 0, 1]],
            [["3", 2.7, 0, 1], [0, 1, 2, 3]],  # strings and floats
            [[True, False, 0, 1], [0, 1, 2, 3]],
            [[0, 1, 2, 3], [0, 1]],  # ragged
            [[-1, 4, 0, 1], [[0, 1, 2, 3]]],  # outside the training set, nested
            [None, None],  # absent
        ]:
            trees = [{"nodes": first}, {"nodes": second}]
            for tree, bootstrap in zip(trees, bootstraps):
                if bootstrap is not None:
                    tree["bootstrap"] = bootstrap
            p = tmp_path / "f.json"
            p.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "random_forest", "model": {
                "n_features": 2, "hyperparams": hyperparams, "trees": trees}}), encoding="utf-8")
            model = load_model(p)
            assert model.to_json_dict() == expected.to_json_dict(), bootstraps
            assert model.predict_many(probe).tolist() == expected.predict_many(probe).tolist()
            assert [model.predict(row) for row in probe] == [expected.predict(row) for row in probe]
            save_model(model, p)
            assert p.read_bytes() == (tmp_path / "expected.json").read_bytes()

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

    def test_file_nested_too_deeply_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(NESTED_TOO_DEEPLY, encoding="utf-8")
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

    def test_forest_integers_past_int64_rejected(self, tmp_path):
        # the second tree's count does not fit int64: joined with the
        # first's, the counts would read as floats, 2**53 + 1 as 2**53,
        # and both trees would vote children
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"format_version": FORMAT_VERSION, "kind": "random_forest", "model": {
            "n_features": 1, "hyperparams": {}, "trees": [
                {"nodes": [[-1, 0.0, -1, -1, 2 ** 53, 2 ** 53 + 1]]},
                {"nodes": [[-1, 0.0, -1, -1, 0, 2 ** 63]]}]}}), encoding="utf-8")
        with pytest.raises(ArtifactError, match="tree 1: .* does not fit int64"):
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
