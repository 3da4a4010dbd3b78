"""Linear SVC and random forest classifiers, trained from scratch.

Labels are +1 for children's literature and -1 for adult literature
everywhere in this module.  The linear SVC solver is exact and uses no
seed; the forest is deterministic for a fixed seed.  save_model /
load_model write a versioned JSON file; the format is in model-format.md.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
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


def json_exact(value, kind: type, rule: str, minimum: float = -math.inf):
    """value, if it is exactly of the JSON type kind (int or bool) and at
    least minimum; else ArtifactError saying rule.  Read through int() or
    bool(), a bool, float or string would load as another value."""
    if type(value) is not kind or value < minimum:
        raise ArtifactError(f"{rule}, got {value!r}")
    return value


def json_floats(value, ndim: int, what: str):
    """value as floats: a float for ndim 0, else an array; ArtifactError
    naming what unless it is a finite JSON number (ndim 0) or a list of
    them (ndim 1).  Read through float() or np.asarray(dtype=float), a
    string or a bool would load as a number, a literal past the float
    range as infinity, and nested lists would fail only when the model
    is used."""
    array = np.asarray(value)
    valid = array.dtype.kind in "iuf" and array.ndim == ndim and np.isfinite(array).all()
    if valid and ndim:
        # NumPy reads a true or false among numbers as 1 or 0, so only the
        # places that hold 1 or 0 are looked up in value
        valid = not any(type(value[i]) is bool for i in np.flatnonzero((array == 0) | (array == 1)))
    if not valid:
        raise ArtifactError(f"{what} must be {'a list of finite numbers' if ndim else 'a finite number'}")
    return float(array) if ndim == 0 else array.astype(float, copy=False)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _validate_training_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ModelError("training matrix must be 2-d")
    if X.shape[0] != y.shape[0]:
        raise ModelError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if X.shape[0] < 2:
        raise ModelError("need at least 2 training rows")
    if X.shape[1] == 0:
        raise ModelError("training matrix has no columns")
    if not np.all(np.isfinite(X)):
        raise ModelError("training matrix contains non-finite values")
    labels = set(y.ravel().tolist())
    if not labels <= {CHILDREN, ADULT}:
        raise ModelError(f"labels must be +1/-1, got {sorted(labels)}")
    if len(labels) < 2:
        raise ModelError("training data contains a single class")
    return X, y.astype(np.int64)


def _validate_input(X, n_features: int, ndim: int) -> np.ndarray:
    """X as floats, a row (ndim 1) or matrix (ndim 2) of n_features finite columns."""
    X, what = np.asarray(X, dtype=float), ("row", "matrix")[ndim - 1]
    if X.ndim != ndim or X.shape[-1] != n_features:
        raise ModelError(f"expected an input {what} of {n_features} columns, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ModelError(f"input {what} contains non-finite values")
    return X


def svc_objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, C: float) -> float:
    """Squared-hinge primal objective: 0.5 ||w||^2 + C sum(max(0, 1 - y f(x))^2)."""
    viol = np.maximum(1.0 - y * (X @ w + b), 0.0)
    return 0.5 * float(w @ w) + C * float(viol @ viol)


@register_model_kind
@dataclass(eq=False)
class LinearSvcModel:
    """Fitted linear classifier with squared-hinge training history;
    compares by identity."""

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
        x = _validate_input(x, self.n_features, 1)
        margin = float(x @ self.weights + self.bias)
        return (CHILDREN if margin >= 0 else ADULT), margin

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        scores = _validate_input(X, self.n_features, 2) @ self.weights + self.bias
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
            weights=json_floats(payload["weights"], 1, "weights"),
            bias=json_floats(payload["bias"], 0, "bias"),
            hyperparams=dict(payload["hyperparams"]),
            objective_history=tuple(payload["objective_history"]),
            n_epochs=json_exact(payload["n_epochs"], int, "n_epochs must be an integer"),
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
                     tolerance: float = 1e-5) -> LinearSvcModel:
    """Minimize svc_objective by finite Newton (Keerthi & DeCoste 2005).

    Each iteration takes a generalized Newton step, halved until the
    objective falls by the Armijo condition, so the recorded history
    never increases.  Training stops when the gradient norm is at most
    the tolerance, after max_epochs iterations, or when no step lowers
    the objective; hyperparams records the final gradient norm and
    whether it met the tolerance.
    """
    X, y = _validate_training_inputs(X, y)
    if not 0 < C < math.inf:
        raise ModelError(f"C must be positive and finite, got {C}")
    if max_epochs < 1:
        raise ModelError(f"max_epochs must be >= 1, got {max_epochs}")
    if not 0 <= tolerance < math.inf:
        raise ModelError(f"tolerance must be >= 0 and finite, got {tolerance}")
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
    """One tree as parallel node columns, NumPy arrays (int64, the
    thresholds float64), the root first and every child after its parent.

    Node i sends x to left[i] when x[feature[i]] <= threshold[i] and to
    right[i] otherwise; feature -1 marks a leaf, which predicts children
    when n_children[i] >= n_adult[i].  train_random_forest writes the
    nodes level by level, each level in the order of the parents, a left
    child before its sibling.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n_children: np.ndarray
    n_adult: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


# (row, feature) elements searched at once; of 8192 to 65536, this was the
# fastest on the grid's forests, and larger chunks hold more memory
_BATCH_ELEMENTS = 32768
# (row, node) decisions a forest's vote takes at once
_VOTE_DECISIONS = 2 ** 20

# A node's stream is the SplitMix64 generator (Steele, Lea & Flood, OOPSLA
# 2014) seeded with the node's key, a root's key being its tree's seed.
# Output 1 is its left child's key, output 2 its right child's and outputs
# 3 on its feature draws, so the draws depend only on the tree and the
# node's path from the root (counter-based, as in Salmon et al., SC 2011).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_LEFT, _RIGHT, _DRAWS = 1, 2, 3


def _splitmix64(keys: np.ndarray, outputs) -> np.ndarray:
    """The given outputs (counting from 1) of the streams seeded with
    keys, one line per key.  Array arithmetic on uint64 wraps without an
    overflow warning, which the generator relies on."""
    z = keys[:, None] + np.asarray(outputs, dtype=np.uint64) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _draw_features(keys: np.ndarray, p: int, k: int) -> np.ndarray:
    """For each node key, k distinct features of range(p) in a uniformly
    random order, from 2k outputs of its stream: Floyd's algorithm picks
    the set from the first k (Bentley & Floyd, CACM 1987), and a stable
    sort of the next k orders it.  An output r picks from range(b) as
    ((r >> 32) * b) >> 32, so each value's chance is within 2**-32 of 1/b,
    and the cost grows with k, not p."""
    draws = _splitmix64(keys, np.arange(_DRAWS, _DRAWS + 2 * k))
    bounds = np.arange(p - k + 1, p + 1, dtype=np.uint64)
    picks = ((draws[:, :k] >> np.uint64(32)) * bounds >> np.uint64(32)).astype(np.int64)
    sample = np.empty((len(keys), k), dtype=np.int64)
    for i in range(k):
        # step i picks from range(p - k + i + 1) and takes p - k + i itself
        # if the pick is already taken
        seen = (sample[:, :i] == picks[:, i, None]).any(axis=1)
        sample[:, i] = np.where(seen, p - k + i, picks[:, i])
    return np.take_along_axis(sample, np.argsort(draws[:, k:], axis=1, kind="stable"), axis=1)


def _split_tables(X: np.ndarray, y01: np.ndarray) -> tuple:
    """(X, y01, codes, values) for _best_splits.  codes[f * n + i] is twice
    the dense rank of X[i, f] in column f (equal values share a rank) plus
    row i's label, in the narrowest unsigned type that holds 2n; values[r, f]
    is the value of rank r in column f."""
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
    codes = np.empty((p, n), dtype=np.min_scalar_type(2 * n))
    codes[cols, order] = ranks
    return X, y01, codes.ravel(), values


# A cut's float score rounds three times, so it lies within a relative
# 2**-51 of its exact value, and the exact best cut of a node scores at
# least its best float score times 1 - 2**-50; _NEAR keeps a wider margin
_NEAR = 1.0 - 2.0 ** -48


def _best_splits(tables, rows: np.ndarray, offsets: np.ndarray, feats: np.ndarray) -> tuple:
    """The best cut of each node of a chunk, where node j holds the rows
    rows[offsets[j]:offsets[j + 1]], at least two, and drew the features
    feats[j].

    Returns (feature, threshold, child_rows, child_counts).  A node's
    feature is -1 and its threshold 0.0 where nothing separates its rows;
    else they give the cut with the lowest weighted Gini impurity, ties
    going to the first feature drawn, then the lowest threshold.
    child_rows holds, for each node that splits, in order, the rows with
    x[feature] <= threshold and then the rest, and child_counts has one
    line per child: its (adult, children) label counts.  One sort orders
    all elements by (node, drawn feature, rank, label), so a node's cut
    does not depend on the rest of the chunk.

    Impurities compare exactly.  A cut of a node of N rows, P of them
    children, that sends ln rows, lp of them children, left and the rn
    others, rp of them children, right has weighted Gini 2 (P - g) / N,
    where g = lp^2/ln + rp^2/rn = (lp^2 rn + rp^2 ln) / (ln rn); so the
    best cut has the largest g.  Each cut's g is scored in floats, and the
    cuts of a node within a rounding margin (_NEAR) of its best score are
    compared as integer fractions: by int64 cross products, which are at
    most N^5 / 16, while N^5 < 2^67, and as Python integers beyond."""
    X, y01, codes, values = tables
    n = len(X)
    m, k = feats.shape
    sizes = np.diff(offsets)
    node = np.repeat(np.arange(m), sizes)
    # key = 2n * segment + code, where segment = k * node + slot, in the
    # narrowest type that holds it, which sorts fastest
    key_type = np.int32 if 2 * n * k * m <= 2 ** 31 else np.int64
    key = np.repeat(np.arange(0, 2 * n * k * m, 2 * n, dtype=key_type).reshape(m, k), sizes, axis=0)
    key += codes.take(np.repeat(feats * n, sizes, axis=0) + rows[:, None])
    key = np.sort(key.ravel())
    rank_key = key >> 1
    pos_prefix = np.zeros(len(key) + 1, dtype=key_type)
    np.cumsum(key & 1, dtype=key_type, out=pos_prefix[1:])
    seg_sizes = np.repeat(sizes, k)
    seg_ends = np.cumsum(seg_sizes)
    seg_first = seg_ends - seg_sizes
    distinct = rank_key[1:] != rank_key[:-1]
    distinct[seg_ends[:-1] - 1] = False
    cut = np.flatnonzero(distinct)
    seg_cuts = np.add.reduceat(distinct, seg_first)
    seg_pos = pos_prefix[seg_first]
    ln = cut + 1 - np.repeat(seg_first, seg_cuts)
    rn = np.repeat(seg_sizes, seg_cuts) - ln
    lp = pos_prefix[cut + 1] - np.repeat(seg_pos, seg_cuts)
    rp = np.repeat(pos_prefix[seg_ends] - seg_pos, seg_cuts) - lp
    score = lp * (lp / ln) + rp * (rp / rn)
    # node j's cuts start at bounds[j]; found are the nodes with a cut
    bounds = np.append(0, np.cumsum(seg_cuts.reshape(m, k).sum(axis=1)))
    found = np.flatnonzero(bounds[:-1] < bounds[1:])
    starts = bounds[found]
    n_cuts = np.diff(np.append(starts, len(cut)))
    near = np.flatnonzero(score >= np.repeat(np.maximum.reduceat(score, starts) * _NEAR, n_cuts))
    # found node i's near cuts are near[tops[i]:tops[i] + n_near[i]]
    tops = np.searchsorted(near, starts)
    n_near = np.diff(np.append(tops, len(near)))
    exact = np.int64 if int(sizes.max()) ** 5 < 2 ** 67 else object
    near_ln, near_rn, near_lp, near_rp = (count[near].astype(exact) for count in (ln, rn, lp, rp))
    num = near_lp * near_lp * near_rn + near_rp * near_rp * near_ln
    den = near_ln * near_rn
    while True:
        # move each node's top to its first near cut of a strictly larger
        # g, until none has one; the top is then its first largest
        top = np.repeat(tops, n_near)
        better = np.flatnonzero(num * den[top] > num[top] * den)
        if not len(better):
            break
        owner = np.repeat(np.arange(len(found)), n_near)[better]
        firsts = np.append(True, owner[1:] != owner[:-1])
        tops[owner[firsts]] = better[firsts]
    at = cut[near[tops]]
    f, threshold = np.full(m, -1), np.zeros(m)
    f[found] = feats[found, rank_key[at] // n - k * found]
    lo, hi = values[rank_key[at] % n, f[found]], values[rank_key[at + 1] % n, f[found]]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # a midpoint that rounds up to hi (adjacent floats) or overflows would
    # send every row left, and the child would repeat its parent forever
    threshold[found] = np.where(mid < hi, mid, lo)
    # partition as prediction does
    splitting = f[node] >= 0
    rows, node = rows[splitting], node[splitting]
    side = 2 * node + (X[rows, f[node]] > threshold[node])
    child_counts = np.bincount(2 * side + y01[rows], minlength=4 * m).reshape(m, 2, 2)[found]
    # a stable sort of the narrowest type that holds the sides is the fastest
    order = np.argsort(side.astype(np.min_scalar_type(2 * m)), kind="stable")
    return f, threshold, rows[order], child_counts.reshape(-1, 2)


@register_model_kind
@dataclass
class RandomForestModel:
    """A majority vote of trees, which must not change once it predicts."""

    KIND = "random_forest"

    trees: list[DecisionTree]
    n_features: int
    hyperparams: dict = field(default_factory=dict)

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @cached_property
    def _nodes(self) -> tuple:
        """The trees' nodes as arrays: each one's feature, threshold, children
        (a leaf's are itself) and vote; then the roots and the depth."""
        feature, threshold, left, right, n_children, n_adult = (
            np.concatenate([getattr(t, f.name) for t in self.trees]) for f in fields(DecisionTree))
        sizes = [tree.n_nodes for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        leaf, own, start = feature < 0, np.arange(len(feature)), np.repeat(roots, sizes)
        left, right = np.where(leaf, own, left + start), np.where(leaf, own, right + start)
        # children lie after their parents; a node parents share counts once
        depth, level = 0, roots
        while not leaf[level].all():
            children = np.concatenate((left[level], right[level]))
            depth, level = depth + 1, np.bincount(children).nonzero()[0]
        vote = leaf & (n_children >= n_adult)
        return np.where(leaf, 0, feature), threshold, left, right, vote, roots, depth

    def _votes(self, X: np.ndarray) -> np.ndarray:
        """The trees voting children for each row of X.  One comparison
        decides every node for a block of rows, and the roots follow the
        chosen child, a flat id into the block's choices, depth times."""
        feature, threshold, left, right, vote, roots, depth = self._nodes
        votes, step = np.empty(len(X), np.intp), max(1, _VOTE_DECISIONS // len(feature))
        for a in range(0, len(X), step):
            chosen = np.where(X[a:a + step].take(feature, axis=1) > threshold, right, left)
            chosen += np.arange(0, chosen.size, len(feature))[:, None]
            at = chosen.take(roots, axis=1)
            for _ in range(depth - 1):
                at = chosen.take(at)
            votes[a:a + step] = vote.take(at, mode="wrap").sum(axis=1)
        return votes

    def predict(self, x) -> tuple[int, float]:
        """Majority-vote label and the fraction of trees voting for it.
        An exact tie resolves to the children's class."""
        votes = int(self._votes(_validate_input(x, self.n_features, 1)[None])[0])
        if 2 * votes >= self.n_trees:
            return CHILDREN, votes / self.n_trees
        return ADULT, (self.n_trees - votes) / self.n_trees

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        votes = self._votes(_validate_input(X, self.n_features, 2))
        return np.where(2 * votes >= self.n_trees, CHILDREN, ADULT).astype(np.int64)

    def to_json_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "hyperparams": dict(self.hyperparams),
            "trees": [
                {"nodes": [list(node) for node in zip(
                    *(getattr(tree, f.name).tolist() for f in fields(DecisionTree)))]}
                for tree in self.trees
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RandomForestModel":
        n_features = json_exact(payload["n_features"], int, "n_features must be an integer")
        entries = payload["trees"]
        if not entries:
            raise ValueError("forest has no trees")
        trees = []
        # children lie after their parent and inside the tree, so a walk
        # stops within n_nodes steps; load_model wraps ValueError as ArtifactError
        for k, entry in enumerate(entries):
            nodes = [(f, t, l, r, nc, na) for f, t, l, r, nc, na in entry["nodes"]]
            if not nodes:
                raise ValueError(f"tree {k} has no nodes")
            for i, (f, _, l, r, nc, na) in enumerate(nodes):
                if not type(f) is type(l) is type(r) is type(nc) is type(na) is int:
                    raise ValueError(f"tree {k} node {i}: a feature, child or count is no integer")
                if f != -1 and not (0 <= f < n_features and i < l < len(nodes)
                                    and i < r < len(nodes)):
                    raise ValueError(f"tree {k} node {i}: feature {f} or children "
                                     f"{l}, {r} out of range")
            feature, threshold, *ints = zip(*nodes)
            columns = np.array([feature, *ints])
            if columns.dtype != np.int64:
                raise ValueError(f"tree {k}: a feature, child or count does not fit int64")
            trees.append(DecisionTree(columns[0], json_floats(threshold, 1, f"tree {k} thresholds"),
                                      *columns[1:]))
        return cls(trees=trees, n_features=n_features,
                   hyperparams=dict(payload["hyperparams"]))


@lru_cache(maxsize=1)
def _bootstraps(seed: int, n_trees: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(tree_seeds, rows): a generator seeded with seed gives each tree a
    seed, and the tree's own generator, seeded with that, draws its
    bootstrap, n row ids of range(n) with replacement; rows holds the
    bootstraps one after another.  The grid fits one forest per condition
    with the same seed, tree count and training size, so the last draw is
    kept, read-only."""
    tree_seeds = np.random.default_rng(seed).integers(0, 2 ** 63 - 1, size=n_trees)
    rows = np.concatenate([np.random.default_rng(int(s)).integers(0, n, size=n) for s in tree_seeds])
    tree_seeds.flags.writeable = rows.flags.writeable = False
    return tree_seeds, rows


def train_random_forest(X, y, n_trees: int = 100, seed: int = 42) -> RandomForestModel:
    """Train a forest of fully grown Gini trees on bootstrap samples.

    Each tree draws a bootstrap of the training set (same size, with
    replacement) from its own generator, seeded from seed (a non-negative
    integer), and considers ceil(sqrt(p)) features per node, drawn by
    _draw_features from a key that depends only on the tree and the
    node's path from the root.  So all trees grow together, one level at
    a time: every node of a level draws, is searched and is partitioned by
    array operations, in chunks of at most _BATCH_ELEMENTS (row, feature)
    elements or of one node that has more.  The forest is the one grown a
    tree at a time, depth first, a pure function of (X, y, n_trees, seed).

    Each node splits at the cut of the lowest weighted Gini impurity over
    its drawn features, compared exactly (see _best_splits).  The last
    fit's bootstraps, n_trees * n row ids, stay held after it returns, for
    the next fit with the same seed, tree count and row count.
    """
    X, y = _validate_training_inputs(X, y)
    if isinstance(n_trees, bool) or not isinstance(n_trees, (int, np.integer)) or n_trees < 1:
        raise ModelError(f"n_trees must be an integer of at least 1, got {n_trees!r}")
    n_trees = int(n_trees)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ModelError(f"seed must be a non-negative integer, got {seed!r}")
    n, p = X.shape
    y01 = ((y + 1) // 2).astype(np.int64)
    k = max(1, math.ceil(math.sqrt(p)))
    tables = _split_tables(X, y01)
    tree_seeds, rows = _bootstraps(int(seed), n_trees, n)
    # the nodes of one level, by tree and then in node order: their tree,
    # key, (adult, children) counts and, one node after another, their
    # rows, at the roots each tree's bootstrap
    tree = np.arange(n_trees)
    key = tree_seeds.astype(np.uint64)
    n_children = y01[rows].reshape(n_trees, n).sum(axis=1)
    counts = np.stack([n - n_children, n_children], axis=1)
    written = np.zeros(n_trees, dtype=np.int64)  # each tree's nodes in the levels done
    levels = []  # each level's tree and node columns
    while True:
        feature, threshold = np.full(len(tree), -1), np.zeros(len(tree))
        mixed = counts.min(axis=1) > 0
        if mixed.any():
            # only a node holding both classes is searched
            sizes = counts.sum(axis=1)
            rows = rows[np.repeat(mixed, sizes)]
            offsets = np.concatenate([[0], np.cumsum(sizes[mixed])])
            feats = _draw_features(key[mixed], p, k)
            elements = offsets * k
            parts, a = [], 0
            while a < len(feats):
                b = max(a + 1, int(np.searchsorted(elements, elements[a] + _BATCH_ELEMENTS, "right")) - 1)
                parts.append(_best_splits(tables, rows[offsets[a]:offsets[b]],
                                          offsets[a:b + 1] - offsets[a], feats[a:b]))
                a = b
            del rows  # before the children's rows are joined, which lowers the peak
            feature[mixed], threshold[mixed], rows, child_counts = map(np.concatenate, zip(*parts))
            del parts
        written += np.bincount(tree, minlength=n_trees)
        # the j-th node of a tree's level to split has the children
        # written + 2j and written + 2j + 1
        internal = np.flatnonzero(feature >= 0)
        owner = tree[internal]
        splits = np.bincount(owner, minlength=n_trees)
        j = np.arange(len(internal)) - (np.cumsum(splits) - splits)[owner]
        left, right = np.full(len(tree), -1), np.full(len(tree), -1)
        left[internal] = written[owner] + 2 * j
        right[internal] = left[internal] + 1
        levels.append((tree, feature, threshold, left, right, counts[:, 1], counts[:, 0]))
        if not len(internal):
            break
        tree = np.repeat(owner, 2)
        key = _splitmix64(key[internal], [_LEFT, _RIGHT]).ravel()
        counts = child_counts
    # each tree's nodes, level by level
    tree, *columns = map(np.concatenate, zip(*levels))
    del levels
    order, cuts = np.argsort(tree, kind="stable"), np.cumsum(written)[:-1]
    trees = zip(*(np.split(column[order], cuts) for column in columns))
    return RandomForestModel(
        trees=[DecisionTree(*nodes) for nodes in trees], n_features=p,
        hyperparams={"n_trees": n_trees, "seed": int(seed), "max_features": k,
                     "feature_draws": "path-splitmix64-floyd"},
    )


def save_model(model, path: str | Path) -> None:
    """Write any registered model kind as versioned, human-readable JSON."""
    kind = getattr(model, "KIND", None)
    if kind not in _MODEL_KINDS:
        raise ArtifactError(f"cannot serialize object of type {type(model).__name__}")
    payload = {"format_version": FORMAT_VERSION, "kind": kind, "model": model.to_json_dict()}
    # serialized whole before the file is opened, so an error leaves no
    # partial file
    text = json.dumps(payload, ensure_ascii=False, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_model(path: str | Path):
    """Read a model file back; fails with a clear message on parse
    errors, non-finite numbers, version mismatches and unknown kinds."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"),
                         parse_constant=_reject_constant)
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; a document
    # nested too deeply for the parser raises RecursionError
    except (ValueError, RecursionError) as exc:
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
