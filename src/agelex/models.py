"""Linear SVC and random forest classifiers, trained from scratch.

Labels are +1 for children's literature and -1 for adult literature
everywhere in this module.  The linear SVC solver is exact and uses no
seed; the forest is deterministic for a fixed seed.  save_model /
load_model write a versioned JSON file; the format is in model-format.md.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ArtifactError, ConfigError, ModelError

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


def _validate_input_matrix(X, n_features: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ModelError(f"expected a matrix with {n_features} columns")
    if not np.all(np.isfinite(X)):
        raise ModelError("input matrix contains non-finite values")
    return X


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

    def predict(self, x) -> tuple[int, float]:
        """Label and signed margin for one input row; a margin of exactly
        zero resolves to the children's class."""
        x = _validate_input_row(x, self.n_features)
        margin = float(x @ self.weights + self.bias)
        return (CHILDREN if margin >= 0 else ADULT), margin

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        scores = _validate_input_matrix(X, self.n_features) @ self.weights + self.bias
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


def _newton_step(Xb: np.ndarray, y: np.ndarray, theta: np.ndarray,
                 C: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of svc_objective at theta = [w, b], where Xb ends in a
    column of ones, and the generalized Newton step on the rows inside the
    margin: the Hessian has the identity on w and no penalty on b.  With
    no row inside, b's gradient is zero and a unit curvature keeps b."""
    viol = np.maximum(1.0 - y * (Xb @ theta), 0.0)
    Xa = Xb[viol > 0]
    grad = np.append(theta[:-1], 0.0) - 2.0 * C * (Xb.T @ (y * viol))
    hessian = np.diag(np.append(np.ones(len(theta) - 1), 0.0 if len(Xa) else 1.0))
    hessian += 2.0 * C * (Xa.T @ Xa)
    return grad, -np.linalg.solve(hessian, grad)


def train_linear_svc(X, y, C: float = 1.0, max_epochs: int = 200,
                     tolerance: float = 1e-5, seed: int | None = None) -> LinearSvcModel:
    """Minimize svc_objective by finite Newton (Keerthi & DeCoste 2005).

    Each iteration takes a generalized Newton step, halved until the
    objective falls by the Armijo condition, so the recorded history
    never increases.  Training stops when the gradient norm is at most
    the tolerance, after max_epochs iterations, or when no step lowers
    the objective; hyperparams records the final gradient norm and
    whether it met the tolerance.  seed is accepted and changes nothing.
    """
    X, y = _validate_training_inputs(X, y)
    if C <= 0:
        raise ModelError(f"C must be positive, got {C}")
    if max_epochs < 1:
        raise ModelError(f"max_epochs must be >= 1, got {max_epochs}")
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    theta = np.zeros(Xb.shape[1])
    history = [svc_objective(theta[:-1], 0.0, X, y, C)]
    while True:
        grad, step = _newton_step(Xb, y, theta, C)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tolerance or len(history) > max_epochs:
            break
        t = 1.0
        while t > 1e-12:
            trial = theta + t * step
            obj = svc_objective(trial[:-1], trial[-1], X, y, C)
            if obj <= history[-1] + 1e-4 * t * float(grad @ step):
                break
            t *= 0.5
        else:  # no step lowers the objective
            break
        theta = trial
        history.append(obj)
    return LinearSvcModel(
        weights=theta[:-1], bias=float(theta[-1]),
        hyperparams={"C": C, "max_epochs": max_epochs, "tolerance": tolerance,
                     "converged": grad_norm <= tolerance, "grad_norm": grad_norm},
        objective_history=tuple(history), n_epochs=len(history) - 1,
    )


@dataclass
class DecisionTree:
    """One tree as parallel node columns in pre-order.

    Node i sends x to left[i] when x[feature[i]] <= threshold[i] and to
    right[i] otherwise; feature -1 marks a leaf, which predicts children
    when n_children[i] >= n_adult[i].
    """

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    n_children: list[int]
    n_adult: list[int]
    bootstrap: np.ndarray

    @classmethod
    def from_nodes(cls, nodes, bootstrap: np.ndarray) -> "DecisionTree":
        """Columns from a non-empty list of node six-tuples."""
        return cls(*map(list, zip(*nodes)), bootstrap=bootstrap)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _children_votes(trees: list[DecisionTree], x: list[float]) -> int:
    """Number of trees whose leaf for the row x predicts children."""
    votes = 0
    for tree in trees:
        feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
        i = 0
        f = feature[0]
        while f >= 0:
            i = left[i] if x[f] <= threshold[i] else right[i]
            f = feature[i]
        votes += tree.n_children[i] >= tree.n_adult[i]
    return votes


def gini_impurity(counts) -> float:
    """Gini impurity of a class-count vector; 0 for a pure node."""
    total = float(sum(counts))
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)


def _best_split(X, y01, idx, feats):
    """Best (weighted impurity, feature, threshold) over candidate
    midpoints of the drawn features, or None when nothing separates.

    All drawn features are searched at once: one sort of each column of
    the (len(idx), len(feats)) block, one running count of children's
    labels and the weighted Gini impurity at every cut.  Cuts between
    equal values are masked out, so the order of equal values in the
    sort changes nothing.  Ties resolve to the first feature in draw
    order and the lowest threshold, which keeps tree growth deterministic.
    """
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
    threshold = float((sv[j, k] + sv[j + 1, k]) / 2.0)
    return float(weighted[k, j]), int(feats[k]), threshold


def _build_tree(X, y01, rng, max_features) -> DecisionTree:
    """Grow one tree on a bootstrap sample of the rows drawn from rng."""
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
            split = _best_split(X, y01, idx, rng.choice(p, size=max_features, replace=False))
        if split is None:
            nodes.append([-1, 0.0, -1, -1, n_children, n_adult])
            continue
        _, f, threshold = split
        mask = X[idx, f] <= threshold
        stack.append((idx[~mask], len(nodes), 3))
        stack.append((idx[mask], len(nodes), 2))
        nodes.append([f, threshold, -1, -1, n_children, n_adult])
    return DecisionTree.from_nodes(nodes, bootstrap)


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

    def _vote(self, x: list[float]) -> tuple[int, float]:
        votes = _children_votes(self.trees, x)
        if 2 * votes >= self.n_trees:
            return CHILDREN, votes / self.n_trees
        return ADULT, (self.n_trees - votes) / self.n_trees

    def predict(self, x) -> tuple[int, float]:
        """Majority-vote label and the fraction of trees voting for it.
        An exact tie resolves to the children's class."""
        return self._vote(_validate_input_row(x, self.n_features).tolist())

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        rows = _validate_input_matrix(X, self.n_features).tolist()
        return np.array([self._vote(row)[0] for row in rows], dtype=np.int64)

    def to_json_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "hyperparams": dict(self.hyperparams),
            "trees": [
                {
                    "bootstrap": tree.bootstrap.tolist(),
                    "nodes": [list(node) for node in zip(tree.feature, tree.threshold, tree.left,
                                                         tree.right, tree.n_children, tree.n_adult)],
                }
                for tree in self.trees
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RandomForestModel":
        n_features = int(payload["n_features"])
        trees = []
        # children lie after their parent and inside the tree, so a walk
        # stops within n_nodes steps; load_model wraps ValueError as ArtifactError
        for k, entry in enumerate(payload["trees"]):
            nodes = [(int(f), float(t), int(l), int(r), int(nc), int(na))
                     for f, t, l, r, nc, na in entry["nodes"]]
            if not nodes:
                raise ValueError(f"tree {k} has no nodes")
            for i, (f, _, l, r, _, _) in enumerate(nodes):
                if f != -1 and not (0 <= f < n_features and i < l < len(nodes)
                                    and i < r < len(nodes)):
                    raise ValueError(f"tree {k} node {i}: feature {f} or children "
                                     f"{l}, {r} out of range")
            trees.append(DecisionTree.from_nodes(nodes, np.asarray(entry["bootstrap"], dtype=np.int64)))
        if not trees:
            raise ValueError("forest has no trees")
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
    p = X.shape[1]
    y01 = ((y + 1) // 2).astype(np.int64)
    max_features = max(1, math.ceil(math.sqrt(p)))
    tree_seeds = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=n_trees)
    trees = [_build_tree(X, y01, np.random.default_rng(int(s)), max_features) for s in tree_seeds]
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
    except ArtifactError as exc:
        raise ArtifactError(f"{path}: {exc}")
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: corrupt model payload: {exc}")
