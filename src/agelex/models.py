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
    labels = set(y.ravel().tolist())
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

    def add_leaf(self, n_children: int, n_adult: int) -> None:
        """Append a leaf holding the given label counts."""
        for column, value in zip((self.feature, self.threshold, self.left, self.right, self.n_children,
                                  self.n_adult), (-1, 0.0, -1, -1, n_children, n_adult)):
            column.append(value)


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


# (row, feature) elements searched at once; larger batches hold more
# memory and are no faster
_BATCH_ELEMENTS = 8192


def _split_tables(X: np.ndarray, y01: np.ndarray) -> tuple:
    """(X, y01, codes, values) for _best_splits.  codes[f * n + i] is twice
    the dense rank of X[i, f] in column f (equal values share a rank) plus
    row i's label; values[r, f] is the value of rank r in column f."""
    n, p = X.shape
    cols = np.arange(p)[:, None]
    order = np.argsort(X.T, axis=1)
    sorted_x = X.T[cols, order]
    ranks = np.zeros((p, n), dtype=np.int64)
    np.cumsum(sorted_x[:, 1:] > sorted_x[:, :-1], axis=1, out=ranks[:, 1:])
    values = np.zeros((n, p))
    values[ranks, cols] = sorted_x
    del sorted_x  # before codes is built, which lowers the peak
    ranks *= 2
    ranks += y01[order]
    codes = np.empty((p, n), dtype=np.int64)
    codes[cols, order] = ranks
    return X, y01, codes.ravel(), values


def _best_splits(tables, batch):
    """The best cut of each node of batch, a list of (rows, drawn
    features): None where nothing separates, else (weighted Gini
    impurity, feature, threshold, left, right), where left and right are
    (rows, children's count) of the rows with x[feature] <= threshold and
    of the rest.  One sort orders all elements by (node, drawn feature,
    rank, label), and each node takes its first minimum: ties go to the
    first feature drawn, then the lowest threshold, whatever else is in
    the batch."""
    X, y01, codes, values = tables
    n = len(X)
    rows = np.concatenate([r for r, _ in batch])
    feats = np.array([f for _, f in batch])
    m, k = feats.shape
    sizes = np.array([len(r) for r, _ in batch])
    node = np.repeat(np.arange(m), sizes)
    # key = 2n * segment + code, where segment = k * node + slot
    key = np.sort((np.arange(0, 2 * n * k * m, 2 * n).reshape(m, k)[node]
                   + codes[(feats * n)[node] + rows[:, None]]).ravel())
    rank_key = key >> 1
    pos_prefix = np.concatenate([[0], np.cumsum(key & 1)])
    seg_sizes = np.repeat(sizes, k)
    seg_ends = np.cumsum(seg_sizes)
    distinct = rank_key[1:] != rank_key[:-1]
    distinct[seg_ends[:-1] - 1] = False
    cut = np.flatnonzero(distinct)
    seg = rank_key[cut] // n
    first = (seg_ends - seg_sizes)[seg]
    ln = (cut + 1 - first).astype(float)
    n_rows = seg_sizes[seg].astype(float)
    rn = n_rows - ln
    lp = pos_prefix[cut + 1] - pos_prefix[first]
    rp = pos_prefix[seg_ends[seg]] - pos_prefix[cut + 1]
    gl = 1.0 - (lp ** 2 + (ln - lp) ** 2) / ln ** 2
    gr = 1.0 - (rp ** 2 + (rn - rp) ** 2) / rn ** 2
    weighted = np.append((ln * gl + rn * gr) / n_rows, np.inf)
    # node j's cuts are bounds[j]:bounds[j + 1]; the inf keeps reduceat in range
    bounds = np.searchsorted(seg, np.arange(0, k * (m + 1), k))
    best = np.where(bounds[:-1] < bounds[1:], np.minimum.reduceat(weighted, bounds[:-1]), np.inf)
    found = np.flatnonzero(best < np.inf)
    hits = np.flatnonzero(weighted[:-1] == np.repeat(best, np.diff(bounds)))
    at = cut[hits[np.searchsorted(hits, bounds[found])]]
    f, threshold = np.zeros(m, dtype=np.int64), np.full(m, np.inf)
    f[found] = feats[found, rank_key[at] // n - k * found]
    lo, hi = values[rank_key[at] % n, f[found]], values[rank_key[at + 1] % n, f[found]]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # a midpoint that rounds up to hi (adjacent floats) or overflows would
    # send every row left, and the child would repeat its parent forever
    threshold[found] = np.where(mid < hi, mid, lo)
    # partition as prediction does; children are copies that keep no batch array alive
    right = X[rows, f[node]] > threshold[node]
    counts = np.bincount(4 * node + 2 * right + y01[rows], minlength=4 * m).reshape(m, 2, 2)
    ends = [(0, 0)] + np.cumsum(counts.sum(axis=2), axis=0).tolist()
    left_rows, right_rows = rows[~right], rows[right]
    splits = [None] * m
    for j, w, fj, t, (cl, cr) in zip(found.tolist(), best[found].tolist(), f[found].tolist(),
                                      threshold[found].tolist(), counts[found, :, 1].tolist()):
        (l0, r0), (l1, r1) = ends[j], ends[j + 1]
        splits[j] = (w, fj, t, (left_rows[l0:l1].copy(), cl), (right_rows[r0:r1].copy(), cr))
    return splits


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
    Each tree has its own generator, seeded from seed, and draws from it
    its bootstrap and then each node's features, in the tree's pre-order.
    The trees grow in lock-step: each step takes the next node to split
    from every unfinished tree and searches them together.  The forest is
    the one grown a tree at a time, a pure function of (X, y, n_trees, seed).
    """
    X, y = _validate_training_inputs(X, y)
    if n_trees < 1:
        raise ModelError(f"n_trees must be >= 1, got {n_trees}")
    n, p = X.shape
    y01 = ((y + 1) // 2).astype(np.int64)
    max_features = max(1, math.ceil(math.sqrt(p)))
    tables = _split_tables(X, y01)
    tree_seeds = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=n_trees)
    rngs = [np.random.default_rng(int(s)) for s in tree_seeds]
    bootstraps = [rng.integers(0, n, size=n) for rng in rngs]
    trees = [DecisionTree([], [], [], [], [], [], rows) for rows in bootstraps]
    # per tree: (rows, their children's count, index of the node whose
    # right child they are, or -1: a left child directly follows its parent)
    stacks = [[(rows, int(y01[rows].sum()), -1)] for rows in bootstraps]
    while any(stacks):
        batch, owners, size = [], [], 0
        for t, stack in enumerate(stacks):
            while stack:
                rows, n_children, parent = stack.pop()
                if parent >= 0:
                    trees[t].right[parent] = trees[t].n_nodes
                trees[t].add_leaf(n_children, len(rows) - n_children)
                if 0 < n_children < len(rows):
                    batch.append((rows, rngs[t].choice(p, size=max_features, replace=False)))
                    owners.append(t)
                    size += len(rows) * max_features
                    break
            if batch and (t == n_trees - 1 or size >= _BATCH_ELEMENTS):
                # each owner's popped node is still the last node of its tree
                for o, split in zip(owners, _best_splits(tables, batch)):
                    if split:
                        tree, i = trees[o], trees[o].n_nodes - 1
                        tree.feature[i], tree.threshold[i], tree.left[i] = split[1], split[2], i + 1
                        stacks[o] += [(*split[4], i), (*split[3], -1)]
                batch, owners, size = [], [], 0
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
