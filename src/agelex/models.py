"""Linear SVC and random forest classifiers, trained from scratch.

Labels are +1 for children's literature and -1 for adult literature
everywhere in this module.  Both trainers are deterministic for a fixed
seed.  save_model / load_model write a versioned JSON file; the format is
described in model-format.md.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArtifactError, ModelError

FORMAT_VERSION = 1

CHILDREN = 1
ADULT = -1

_MODEL_KINDS: dict[str, type] = {}


def register_model_kind(cls):
    """Class decorator adding a serializable model kind to the registry
    used by load_model."""
    _MODEL_KINDS[cls.KIND] = cls
    return cls


def _validate_training_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ModelError("training matrix must be 2-d")
    if X.shape[0] != y.shape[0]:
        raise ModelError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise ModelError("need at least 2 training rows")
    if not np.all(np.isfinite(X)):
        raise ModelError("training matrix contains non-finite values")
    labels = set(np.unique(y).tolist())
    if not labels <= {CHILDREN, ADULT}:
        raise ModelError(f"labels must be +1/-1, got {sorted(labels)}")
    if len(labels) < 2:
        raise ModelError("training data contains a single class")
    return X, y.astype(np.int64)


def _validate_input_row(x, n_features: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != n_features:
        raise ModelError(f"expected an input vector of length {n_features}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ModelError("input vector contains non-finite values")
    return x


def svc_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Squared-hinge primal objective: 0.5 ||w||^2 + C sum(max(0, 1 - y f(x))^2)."""
    viol = np.maximum(1.0 - y * (X @ w + b), 0.0)
    return 0.5 * float(w @ w) + C * float(viol @ viol)


@register_model_kind
@dataclass
class LinearSvcModel:
    """Fitted linear classifier with squared-hinge training history."""

    KIND = "linear_svc"

    weights: np.ndarray
    bias: float
    hyperparams: dict
    objective_history: tuple[float, ...]
    n_epochs: int

    @property
    def n_features(self) -> int:
        return int(self.weights.shape[0])

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=float) @ self.weights + self.bias

    def predict(self, x) -> tuple[int, float]:
        """Label and signed margin for one input row; a margin of exactly
        zero resolves to the children's class."""
        x = _validate_input_row(x, self.n_features)
        margin = float(x @ self.weights + self.bias)
        return (CHILDREN if margin >= 0 else ADULT), margin

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(f"expected a matrix with {self.n_features} columns")
        scores = self.decision_function(X)
        return np.where(scores >= 0, CHILDREN, ADULT).astype(np.int64)

    def to_json_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias,
            "hyperparams": dict(self.hyperparams),
            "objective_history": list(self.objective_history),
            "n_epochs": self.n_epochs,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LinearSvcModel":
        return cls(
            weights=np.asarray(payload["weights"], dtype=float),
            bias=float(payload["bias"]),
            hyperparams=dict(payload["hyperparams"]),
            objective_history=tuple(payload["objective_history"]),
            n_epochs=int(payload["n_epochs"]),
        )


def train_linear_svc(X, y, C: float = 1.0, max_epochs: int = 200,
                     tolerance: float = 1e-5, seed: int = 42) -> LinearSvcModel:
    """Train by seeded stochastic subgradient descent on the squared
    hinge.

    After each pass the full objective is evaluated; a pass that would
    increase it is rolled back and the step size halved, which keeps the
    recorded objective history monotone non-increasing.  Training stops
    when an accepted pass improves by less than the tolerance, after
    max_epochs passes, or when the step size underflows.
    """
    X, y = _validate_training_inputs(X, y)
    if C <= 0:
        raise ModelError(f"C must be positive, got {C}")
    if max_epochs < 1:
        raise ModelError(f"max_epochs must be >= 1, got {max_epochs}")
    n, p = X.shape
    rng = np.random.default_rng(seed)
    w = np.zeros(p)
    b = 0.0
    # step size scaled to the data so the first passes stay stable
    eta = 1.0 / (1.0 + 2.0 * C * (float(np.mean(np.einsum("ij,ij->i", X, X))) + 1.0))
    history = [svc_objective(w, b, X, y, C)]
    epoch = 0
    while epoch < max_epochs:
        epoch += 1
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
        if obj > history[-1]:
            w, b = w_prev, b_prev
            eta *= 0.5
            if eta < 1e-15:
                break
            continue
        improvement = history[-1] - obj
        history.append(obj)
        if improvement < tolerance:
            break
    return LinearSvcModel(
        weights=w, bias=float(b),
        hyperparams={"C": C, "max_epochs": max_epochs, "tolerance": tolerance, "seed": seed},
        objective_history=tuple(history), n_epochs=epoch,
    )


@dataclass
class TreeNode:
    """One node of a decision tree; feature -1 marks a leaf."""

    feature: int
    threshold: float
    left: int
    right: int
    n_children: int
    n_adult: int


@dataclass
class DecisionTree:
    nodes: list[TreeNode]
    bootstrap: np.ndarray

    def predict_one(self, x: np.ndarray) -> int:
        node = self.nodes[0]
        while node.feature >= 0:
            node = self.nodes[node.left] if x[node.feature] <= node.threshold else self.nodes[node.right]
        return CHILDREN if node.n_children >= node.n_adult else ADULT

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def gini_impurity(counts) -> float:
    """Gini impurity of a class-count vector; 0 for a pure node."""
    total = float(sum(counts))
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _best_split(X, y01, idx, feats):
    """Best (weighted impurity, feature, threshold) over candidate
    midpoints of the drawn features, or None when nothing separates.

    Ties resolve to the first feature in draw order and the lowest
    threshold, which keeps tree growth deterministic.
    """
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


def _build_tree(X, y01, rng, max_features) -> list[TreeNode]:
    n, p = X.shape
    nodes: list[TreeNode] = []
    stack = [(np.arange(n), -1, False)]
    while stack:
        idx, parent, is_right = stack.pop()
        node_id = len(nodes)
        if parent >= 0:
            if is_right:
                nodes[parent].right = node_id
            else:
                nodes[parent].left = node_id
        counts = np.bincount(y01[idx], minlength=2)
        n_adult, n_children = int(counts[0]), int(counts[1])
        split = None
        if len(idx) >= 2 and n_adult > 0 and n_children > 0:
            feats = rng.choice(p, size=max_features, replace=False)
            split = _best_split(X, y01, idx, feats)
        if split is None:
            nodes.append(TreeNode(-1, 0.0, -1, -1, n_children, n_adult))
            continue
        _, f, threshold = split
        nodes.append(TreeNode(f, threshold, -1, -1, n_children, n_adult))
        mask = X[idx, f] <= threshold
        stack.append((idx[~mask], node_id, True))
        stack.append((idx[mask], node_id, False))
    return nodes


@register_model_kind
@dataclass
class RandomForestModel:
    KIND = "random_forest"

    trees: list[DecisionTree]
    n_features: int
    hyperparams: dict = field(default_factory=dict)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict(self, x) -> tuple[int, float]:
        """Majority-vote label and the fraction of trees voting for it.
        An exact tie resolves to the children's class."""
        x = _validate_input_row(x, self.n_features)
        votes = sum(1 for tree in self.trees if tree.predict_one(x) == CHILDREN)
        if 2 * votes >= self.n_trees:
            return CHILDREN, votes / self.n_trees
        return ADULT, (self.n_trees - votes) / self.n_trees

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ModelError(f"expected a matrix with {self.n_features} columns")
        return np.array([self.predict(row)[0] for row in X], dtype=np.int64)

    def to_json_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "hyperparams": dict(self.hyperparams),
            "trees": [
                {
                    "bootstrap": tree.bootstrap.tolist(),
                    "nodes": [[node.feature, node.threshold, node.left, node.right,
                               node.n_children, node.n_adult] for node in tree.nodes],
                }
                for tree in self.trees
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RandomForestModel":
        n_features = int(payload["n_features"])
        trees = [
            DecisionTree(
                nodes=[TreeNode(int(f), float(t), int(l), int(r), int(nc), int(na))
                       for f, t, l, r, nc, na in entry["nodes"]],
                bootstrap=np.asarray(entry["bootstrap"], dtype=np.int64),
            )
            for entry in payload["trees"]
        ]
        # children lie after their parent and inside the tree, so predict_one
        # stops within n_nodes steps; load_model wraps ValueError as ArtifactError
        for k, tree in enumerate(trees):
            n_nodes = len(tree.nodes)
            if n_nodes == 0:
                raise ValueError(f"tree {k} has no nodes")
            for i, node in enumerate(tree.nodes):
                if node.feature != -1 and not (0 <= node.feature < n_features
                                               and i < node.left < n_nodes
                                               and i < node.right < n_nodes):
                    raise ValueError(f"tree {k} node {i}: feature {node.feature} or children "
                                     f"{node.left}, {node.right} out of range")
        return cls(trees=trees, n_features=n_features,
                   hyperparams=dict(payload["hyperparams"]))


def train_random_forest(X, y, n_trees: int = 100, seed: int = 42) -> RandomForestModel:
    """Train a forest of fully grown Gini trees on bootstrap samples.

    Each tree draws a bootstrap of the training set (same size, with
    replacement) and considers ceil(sqrt(p)) random features per node.
    The whole procedure is a pure function of (X, y, n_trees, seed).
    """
    X, y = _validate_training_inputs(X, y)
    if n_trees < 1:
        raise ModelError(f"n_trees must be >= 1, got {n_trees}")
    n, p = X.shape
    y01 = ((y + 1) // 2).astype(np.int64)
    max_features = max(1, math.ceil(math.sqrt(p)))
    master = np.random.default_rng(seed)
    tree_seeds = master.integers(0, 2 ** 63 - 1, size=n_trees)
    trees = []
    for tree_seed in tree_seeds:
        rng = np.random.default_rng(int(tree_seed))
        bootstrap = rng.integers(0, n, size=n)
        nodes = _build_tree(X[bootstrap], y01[bootstrap], rng, max_features)
        trees.append(DecisionTree(nodes=nodes, bootstrap=bootstrap))
    return RandomForestModel(
        trees=trees, n_features=p,
        hyperparams={"n_trees": n_trees, "seed": seed, "max_features": max_features},
    )


def save_model(model, path: str | Path) -> None:
    """Write any registered model kind as versioned, human-readable JSON."""
    kind = getattr(model, "KIND", None)
    if kind not in _MODEL_KINDS:
        raise ArtifactError(f"cannot serialize object of type {type(model).__name__}")
    payload = {"format_version": FORMAT_VERSION, "kind": kind, "model": model.to_json_dict()}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=1)
        fh.write("\n")


def load_model(path: str | Path):
    """Read a model file back; fails with a clear message on parse
    errors, version mismatches and unknown kinds."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: not a valid model file: {exc}")
    if not isinstance(raw, dict):
        raise ArtifactError(f"{path}: not a valid model file: expected a JSON object")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: model format version {version!r} is not supported; this build reads version {FORMAT_VERSION}")
    kind = raw.get("kind")
    cls = _MODEL_KINDS.get(kind)
    if cls is None:
        raise ArtifactError(f"{path}: unknown model kind {kind!r}")
    try:
        return cls.from_json_dict(raw["model"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: corrupt model payload: {exc}")
