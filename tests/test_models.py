"""Linear SVC, random forest and the versioned model files."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agelex.pipeline
from agelex.errors import ArtifactError, ModelError
from agelex.models import (ADULT, CHILDREN, FORMAT_VERSION, DecisionTree,
                           LinearSvcModel, RandomForestModel, _best_split,
                           _children_votes, _newton_step, gini_impurity,
                           load_model, save_model, svc_objective,
                           train_linear_svc, train_random_forest)
from agelex.pipeline import run_grid
from agelex.synthetic import make_corpus


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
    _best_split, which searches all drawn features at once."""
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
            threshold = float((sv[distinct[j]] + sv[distinct[j] + 1]) / 2.0)
            best = (float(weighted[j]), int(f), threshold)
    return best


@st.composite
def split_problems(draw):
    """Small-integer matrices, so equal values and equal impurities are
    common, with a bootstrap-like idx and features in a random draw order."""
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=float)
    y01 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    idx = np.array(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=16)), dtype=np.int64)
    feats = np.array(draw(st.permutations(range(p)))[:draw(st.integers(1, p))], dtype=np.int64)
    return X, y01, idx, feats


class TestSplitSearch:
    @settings(max_examples=150, deadline=None)
    @given(split_problems())
    def test_equals_one_feature_at_a_time(self, problem):
        assert _best_split(*problem) == reference_best_split(*problem)

    def test_ties_go_to_first_drawn_feature_then_lowest_threshold(self):
        # columns 0 and 2 are identical, and both cuts of either give
        # weighted impurity 1/3
        X = np.array([[0.0, 5.0, 0.0], [1.0, 5.0, 1.0], [2.0, 5.0, 2.0]])
        y01 = np.array([0, 1, 0])
        idx = np.arange(3)
        expected = (1 / 3, 2, 0.5)
        assert reference_best_split(X, y01, idx, np.array([1, 2, 0])) == expected
        assert _best_split(X, y01, idx, np.array([1, 2, 0])) == expected
        assert _best_split(X, y01, idx, np.array([0, 2]))[1:] == (0, 0.5)
        # both columns separate perfectly; the first drawn wins although
        # the other one's cut has the lower threshold
        X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.0]])
        y01 = np.array([0, 0, 1])
        assert _best_split(X, y01, idx, np.array([0, 1])) == (0.0, 0, 1.5)
        assert _best_split(X, y01, idx, np.array([1, 0])) == (0.0, 1, 0.5)

    def test_nothing_separates(self):
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert _best_split(X, np.array([0, 1]), np.arange(2), np.array([1, 0])) is None


class TestRandomForest:
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
