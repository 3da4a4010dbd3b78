"""End-to-end training pipelines and the experiment grid.

A Recipe says which inputs a model sees: the tf-idf bag of words (fitted
on 256-lemma training fragments, optionally with the abstract appended
to the preview) and any subset of the six feature families computed on
full previews.  train_pipeline fits the vectorizers and scaler on the
training split only and trains one of the two classifiers.  The linear
SVC is fitted on a variance-preserving SVD of the scaled matrix, and
the SVD is then folded into its weights, so a trained pipeline is only
its vectorizers, scaler and model.  The grid mirrors the published
experiment: a baseline bag-of-words model against every combination of
added feature families and publishing attributes.

Every document is read through a CorpusVectors, which analyzes it once
and keeps its feature vector, warnings included, and its tf-idf
fragments: training, batch prediction, single-text classification, the
grid and the command-line feature tables all read documents through it.
Each of them takes Resources or a CorpusVectors in one place: pass the
same CorpusVectors to several calls to reuse what it has read, or
Resources to read through a fresh one.

Training has one path: each grid condition, and train_pipeline's one
recipe, fits on its columns of one scaled design per abstract flag (see
_grid_designs), so a trained pipeline's model is the grid's fit.

Once the designs exist, no grid cell reads another's result, so
run_grid fits and scores the cells in one forked worker process per CPU
this process may use (its affinity mask: `taskset -c 0` keeps the grid
in this process), and its rows are the same at any CPU count.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import MetricsReport, metrics
from .corpus import Corpus, Document, Label, Split
from .errors import ArtifactError, ConfigError, ModelError
from .features import ALL_FEATURE_NAMES, FAMILY_NAMES, FeatureVector, extract_all, schema_hash
from .models import (CHILDREN, ADULT, LinearSvcModel, RandomForestModel, column_ranks,
                     json_exact, json_floats, rank_design, register_model_kind,
                     train_linear_svc, train_random_forest)
from .resources import Resources
from .vectorizer import (FRAGMENT_LIMIT, SVD_TARGET, MinMaxScaler,
                         TfidfModel, augment_with_abstract, fit_minmax, fit_svd,
                         fit_tfidf, has_abstract, preprocess)

# short model kind -> the model class a pipeline of that kind holds
_MODEL_CLASSES = {"rf": RandomForestModel, "lsvc": LinearSvcModel}
MODEL_KINDS = tuple(_MODEL_CLASSES)
_COLUMN_OF = {name: i for i, name in enumerate(ALL_FEATURE_NAMES)}


@dataclass(frozen=True)
class Recipe:
    """Input selection for one trained model."""

    use_tfidf: bool = True
    families: tuple[str, ...] = ()
    use_abstract: bool = False

    def __post_init__(self):
        unknown = [f for f in self.families if f not in FAMILY_NAMES]
        if unknown:
            raise ConfigError(f"unknown feature families {unknown}; known: {list(FAMILY_NAMES)}")
        # canonical family order, deduplicated; only the tf-idf reads abstracts
        ordered = tuple(f for f in FAMILY_NAMES if f in self.families)
        object.__setattr__(self, "families", ordered)
        object.__setattr__(self, "use_abstract", self.use_abstract and self.use_tfidf)
        if not self.use_tfidf and not self.families:
            raise ConfigError("recipe selects no inputs: enable tf-idf or at least one family")

    @property
    def feature_names(self) -> tuple[str, ...]:
        names: tuple[str, ...] = ()
        for family in self.families:
            names += FAMILY_NAMES[family]
        return names


def label_to_int(label: Label) -> int:
    return CHILDREN if label is Label.CHILDREN else ADULT


class CorpusVectors:
    """The one place a Document becomes model inputs.

    Computes a document's 56-feature vector, with its extraction
    warnings, and its first `limit` lemmas, with or without the abstract
    appended, on first use and keeps them.  Entries are keyed by the
    Document value itself, not its id (a scored batch may repeat an
    id with a different text) and not its text (equal previews with
    different metadata stay distinct), so one instance can be shared by
    every model trained and evaluated on the same documents.  A kept
    plain fragment that holds `limit` lemmas is also the fragment with
    the abstract, which only lemmas after the preview's would read.
    """

    def __init__(self, resources: Resources):
        self.resources = resources
        self._features: dict[Document, FeatureVector] = {}
        self._fragments: dict[tuple[Document, bool, int], list[str]] = {}

    def features(self, doc: Document) -> FeatureVector:
        if doc not in self._features:
            self._features[doc] = extract_all(doc, self.resources)
        return self._features[doc]

    def feature_matrix(self, docs: list[Document], names: tuple[str, ...]) -> np.ndarray:
        """One C-contiguous row per document: the named features, in order."""
        columns = [_COLUMN_OF[name] for name in names]
        return np.array([self.features(doc).values for doc in docs]).take(columns, axis=1)

    def warning_count(self, warning: str) -> int:
        """Documents whose features were computed so far and raised the
        warning; documents never read for features are not counted."""
        return sum(warning in fv.warnings for fv in self._features.values())

    def fragment(self, doc: Document, use_abstract: bool, limit: int) -> list[str]:
        key = (doc, use_abstract and has_abstract(doc.abstract), limit)
        if key not in self._fragments:
            plain = self._fragments.get((doc, False, limit))
            if key[1] and plain is not None:
                # normalizing never acts across whitespace, so the preview
                # is read before its abstract: a preview that fills the
                # fragment ends it, and a shorter one is followed by the
                # abstract's first lemmas
                self._fragments[key] = plain if len(plain) == limit else plain + preprocess(
                    doc.abstract, self.resources.morphology, self.resources.stopwords,
                    limit - len(plain))
            else:
                text = augment_with_abstract(doc.text, doc.abstract) if key[1] else doc.text
                self._fragments[key] = preprocess(text, self.resources.morphology,
                                                  self.resources.stopwords, limit)
        return self._fragments[key]

    def fragments(self, docs: list[Document], use_abstract: bool, limit: int) -> list[list[str]]:
        """One fragment per document, as fragment() gives it."""
        return [self.fragment(doc, use_abstract, limit) for doc in docs]


def _vectors(source: Resources | CorpusVectors) -> CorpusVectors:
    """Where a pipeline reads documents: the CorpusVectors given, which
    keeps what it reads, or a fresh one on the Resources given."""
    return source if isinstance(source, CorpusVectors) else CorpusVectors(source)


@register_model_kind
@dataclass(eq=False)
class TrainedPipeline:
    """A fitted recipe: vectorizers, scaler and the model.

    The design matrix layout is the tf-idf block (when enabled) followed
    by the selected family columns in schema order; min-max scaling spans
    the whole matrix, and the model reads the scaled columns.  Pipelines
    compare by identity.
    """

    KIND = "pipeline"

    recipe: Recipe
    model_kind: str
    model: LinearSvcModel | RandomForestModel
    scaler: MinMaxScaler
    tfidf: TfidfModel | None = None
    feature_schema: str = field(default_factory=schema_hash)
    fragment_limit: int = FRAGMENT_LIMIT
    seed: int = 42

    def _design_matrix(self, docs: list[Document], vectors: CorpusVectors) -> np.ndarray:
        blocks = []
        if self.recipe.use_tfidf:
            assert self.tfidf is not None
            blocks.append(self.tfidf.transform_many(
                vectors.fragments(docs, self.recipe.use_abstract, self.fragment_limit)))
        if self.recipe.families:
            blocks.append(vectors.feature_matrix(docs, self.recipe.feature_names))
        return self.scaler.transform(np.concatenate(blocks, axis=1))

    def predict_documents(self, docs: list[Document],
                          source: Resources | CorpusVectors) -> np.ndarray:
        if not docs:
            raise ModelError("no documents to classify")
        return self.model.predict_many(self._design_matrix(docs, _vectors(source)))

    def classify(self, doc: Document, source: Resources | CorpusVectors) -> tuple[Label, float]:
        """Label one document; the score is the signed margin for the
        linear model and the winning vote share for the forest."""
        label_int, score = self.model.predict(self._design_matrix([doc], _vectors(source))[0])
        return (Label.CHILDREN if label_int == CHILDREN else Label.ADULT), score

    def evaluate(self, docs: list[Document], source: Resources | CorpusVectors) -> MetricsReport:
        return metrics(self.predict_documents(docs, source), _labels(docs))

    def to_json_dict(self) -> dict:
        payload = {
            "recipe": {
                "use_tfidf": self.recipe.use_tfidf,
                "families": list(self.recipe.families),
                "use_abstract": self.recipe.use_abstract,
            },
            "model_kind": self.model_kind,
            "feature_schema": self.feature_schema,
            "fragment_limit": self.fragment_limit,
            "seed": self.seed,
            "scaler": {"mins": self.scaler.mins.tolist(), "ranges": self.scaler.ranges.tolist()},
            "model": {"kind": self.model.KIND, "payload": self.model.to_json_dict()},
        }
        if self.tfidf is not None:
            payload["tfidf"] = {
                "vocabulary": list(self.tfidf.vocabulary),
                "idf": self.tfidf.idf.tolist(),
                "n_docs": self.tfidf.n_docs,
            }
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TrainedPipeline":
        if "svd" in payload:
            raise ArtifactError("the pipeline has an svd stage, which the linear SVC's "
                                "weights now hold; retrain the model")
        entry = payload["recipe"]
        use_tfidf, use_abstract = (json_exact(entry[key], bool, f"recipe.{key} must be a boolean")
                                   for key in ("use_tfidf", "use_abstract"))
        recipe = Recipe(use_tfidf, tuple(entry["families"]), use_abstract)
        stored_schema = payload["feature_schema"]
        if recipe.families and stored_schema != schema_hash():
            raise ArtifactError(
                f"feature schema mismatch: artifact was built with schema {stored_schema}, "
                f"current code produces {schema_hash()}")
        model_kind, model_entry = payload["model_kind"], payload["model"]
        model_cls = _MODEL_CLASSES.get(model_kind)
        if model_cls is None or model_entry["kind"] != model_cls.KIND:
            raise ArtifactError(f"unknown inner model kind {model_entry['kind']!r} "
                                f"for model_kind {model_kind!r}")
        tfidf = None
        if recipe.use_tfidf:
            vocabulary = payload["tfidf"]["vocabulary"]
            # a repeated term would leave a column that always reads 0
            if (type(vocabulary) is not list or not all(type(term) is str for term in vocabulary)
                    or len(set(vocabulary)) != len(vocabulary)):
                raise ArtifactError("tfidf.vocabulary must be a list of distinct strings")
            tfidf = TfidfModel(
                vocabulary=tuple(vocabulary),
                idf=json_floats(payload["tfidf"]["idf"], 1, "tfidf.idf"),
                n_docs=json_exact(payload["tfidf"]["n_docs"], int,
                                  "tfidf.n_docs must be an integer of at least 1", minimum=1),
            )
        scaler = MinMaxScaler(
            mins=json_floats(payload["scaler"]["mins"], 1, "scaler.mins"),
            ranges=json_floats(payload["scaler"]["ranges"], 1, "scaler.ranges"),
        )
        model = model_cls.from_json_dict(model_entry["payload"])
        _check_widths(recipe, tfidf, scaler, model)
        rule = "fragment_limit must be an integer of at least 1 and seed an integer"
        limit = json_exact(payload["fragment_limit"], int, rule, minimum=1)
        seed = json_exact(payload["seed"], int, rule)
        return cls(recipe=recipe, model_kind=model_kind, model=model,
                   scaler=scaler, tfidf=tfidf, feature_schema=stored_schema,
                   fragment_limit=limit, seed=seed)


def _check_widths(recipe: Recipe, tfidf: TfidfModel | None, scaler: MinMaxScaler,
                  model: LinearSvcModel | RandomForestModel) -> None:
    """Each stage of a loaded pipeline must read as many columns as the
    stage before it writes, so a corrupt file fails on load and not on
    its first classify."""
    width = len(recipe.feature_names)
    if tfidf is not None:
        if len(tfidf.idf) != len(tfidf.vocabulary):
            raise ArtifactError(f"tfidf has {len(tfidf.vocabulary)} vocabulary terms "
                                f"but {len(tfidf.idf)} idf values")
        width += len(tfidf.vocabulary)
    if scaler.mins.shape != (width,) or scaler.ranges.shape != (width,):
        raise ArtifactError(f"scaler mins/ranges have shapes {scaler.mins.shape}/"
                            f"{scaler.ranges.shape}, but the design matrix has {width} columns")
    if model.n_features != width:
        raise ArtifactError(f"model reads {model.n_features} columns, but the scaler gives {width}")


@dataclass
class TrainSettings:
    """Hyperparameters shared by train_pipeline and the grid."""

    seed: int = 42
    n_trees: int = 100
    # the lsvc is fitted on the SVD keeping svd_target of the scaled
    # matrix's variance, then folded into its weights (1.0 is the fit on
    # the scaled matrix itself); the forest never uses the SVD
    svd_target: float = SVD_TARGET


def _training_documents(corpus: Corpus) -> list[Document]:
    train_docs = corpus.subset(Split.TRAIN)
    if not train_docs:
        raise ConfigError("corpus has no training documents")
    return train_docs


def _labels(docs: list[Document]) -> np.ndarray:
    return np.array([label_to_int(d.label) for d in docs], dtype=np.int64)


def _fit_model(kind: str, X: np.ndarray, y: np.ndarray, settings: TrainSettings,
               ranks: tuple | None = None) -> LinearSvcModel | RandomForestModel:
    """The model of a pipeline of the given kind, fitted on its scaled
    design matrix; a forest reads the ranks of X if given (see
    train_random_forest)."""
    if kind == "rf":
        return train_random_forest(X, y, n_trees=settings.n_trees, seed=settings.seed,
                                   ranks=ranks)
    svd = fit_svd(X, settings.svd_target)
    model = train_linear_svc(svd.transform(X), y)
    # with components C and mean μ, the margin of a scaled row s is
    # w·C(s − μ) + b = (Cᵀw)·s + b − (Cᵀw)·μ, so a copy of the solver's
    # model reads the scaler's columns
    weights = svd.components.T @ model.weights
    return replace(model, weights=weights, bias=float(model.bias - weights @ svd.mean),
                   hyperparams={**model.hyperparams, "svd": {
                       "k": svd.k, "retained": svd.retained, "target": svd.target}})


def _check_model_kinds(model_kinds: tuple[str, ...]) -> None:
    if not model_kinds:
        raise ConfigError(f"no model kinds given; known: {list(MODEL_KINDS)}")
    for kind in model_kinds:
        if kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {kind!r}; known: {list(MODEL_KINDS)}")


def train_pipeline(corpus: Corpus, source: Resources | CorpusVectors, recipe: Recipe,
                   model_kind: str, settings: TrainSettings | None = None) -> TrainedPipeline:
    """Fit a recipe on the corpus training split: the grid's fit of it."""
    settings = settings or TrainSettings()
    _check_model_kinds((model_kind,))
    train_docs = _training_documents(corpus)
    designs = _grid_designs([recipe], (train_docs,), _vectors(source))
    tfidf, scaler, (X,) = _recipe_design(designs, recipe)
    return TrainedPipeline(recipe=recipe, model_kind=model_kind,
                           model=_fit_model(model_kind, X, _labels(train_docs), settings),
                           scaler=scaler, tfidf=tfidf, seed=settings.seed)


# Conditions of the experiment grid, in report order.  "baseline" is the
# bag-of-words model alone; the age_rating rows are the publishing
# family (the one-hot) with and without the bag of words, and publ_attr
# bundles the abstract text with the age-rating one-hot.
_QUANT = ("readability", "sentiment", "lexical", "grammatical", "general")
_ALL_FAMILIES = tuple(FAMILY_NAMES)


def grid_conditions() -> list[tuple[str, Recipe]]:
    conditions: list[tuple[str, Recipe]] = [("baseline", Recipe(use_tfidf=True))]
    for family in _QUANT:
        conditions.append((f"baseline+{family}", Recipe(use_tfidf=True, families=(family,))))
        conditions.append((family, Recipe(use_tfidf=False, families=(family,))))
    conditions += [
        ("baseline+age_rating", Recipe(use_tfidf=True, families=("publishing",))),
        ("age_rating", Recipe(use_tfidf=False, families=("publishing",))),
        ("baseline+abstracts", Recipe(use_tfidf=True, use_abstract=True)),
        ("baseline+publ_attr", Recipe(use_tfidf=True, families=("publishing",), use_abstract=True)),
        ("baseline+all", Recipe(use_tfidf=True, families=_ALL_FAMILIES, use_abstract=True)),
        ("all", Recipe(use_tfidf=False, families=_ALL_FAMILIES)),
        ("baseline+all-publ_attr", Recipe(use_tfidf=True, families=_QUANT)),
    ]
    return conditions


@dataclass(frozen=True)
class GridRow:
    model_kind: str
    condition: str
    report: MetricsReport


def _grid_designs(recipes: list[Recipe], splits: tuple[list[Document], ...],
                  vectors: CorpusVectors) -> dict[bool | None, tuple]:
    """The designs the recipes read, by tf-idf abstract flag: the tf-idf
    fitted on the first split without (False) or with (True) abstracts,
    then all 56 features, or the features alone (None) when no recipe
    reads a tf-idf.  Each maps to its tf-idf (or None), the scaler fitted
    on the first split, and one scaled matrix per split.  A block no
    recipe reads is not built.

    Min-max scaling is fitted column by column, so a recipe's scaler and
    scaled designs are column slices of these (see _recipe_design)."""
    features = None
    if any(recipe.families for recipe in recipes):
        features = [vectors.feature_matrix(docs, ALL_FEATURE_NAMES) for docs in splits]
    designs = {}
    # plain fragments first, which the abstract ones of full previews reuse
    flags = sorted({recipe.use_abstract for recipe in recipes if recipe.use_tfidf})
    for flag in flags or ([None] if features is not None else []):
        tfidf, raw = None, features
        if flag is not None:
            tfidf = fit_tfidf(vectors.fragments(splits[0], flag, FRAGMENT_LIMIT))
            raw = [tfidf.transform_many(vectors.fragments(docs, flag, FRAGMENT_LIMIT)) for docs in splits]
            if features is not None:
                raw = [np.hstack(blocks) for blocks in zip(raw, features)]
        scaler = fit_minmax(raw[0])
        designs[flag] = tfidf, scaler, [scaler.transform(X) for X in raw]
    return designs


def _recipe_columns(designs: dict, recipe: Recipe) -> tuple[bool | None, list[int]]:
    """The key of the one of _grid_designs that holds the recipe's
    columns, and their indices in it."""
    key = recipe.use_abstract if recipe.use_tfidf else next(iter(designs))
    tfidf = designs[key][0]
    width = len(tfidf.vocabulary) if tfidf is not None else 0
    columns = list(range(width)) if recipe.use_tfidf else []
    columns += [width + _COLUMN_OF[feature] for feature in recipe.feature_names]
    return key, columns


def _recipe_design(designs: dict, recipe: Recipe
                   ) -> tuple[TfidfModel | None, MinMaxScaler, list[np.ndarray]]:
    """The recipe's tf-idf, scaler and scaled designs: its columns of one
    of _grid_designs, the matrices taken into C-contiguous copies
    (X[:, columns] would give Fortran-ordered ones)."""
    key, columns = _recipe_columns(designs, recipe)
    tfidf, scaler, matrices = designs[key]
    return (tfidf if recipe.use_tfidf else None,
            MinMaxScaler(scaler.mins[columns], scaler.ranges[columns]),
            [X.take(columns, axis=1) for X in matrices])


# a grid worker's (designs, ranks, labels, test labels, settings), set
# when the worker starts; see run_grid
_worker_grid: tuple | None = None


def _start_grid_worker(grid: tuple) -> None:
    global _worker_grid
    _worker_grid = grid
    # a killed parent cannot shut the pool down, and its workers would wait
    # for cells forever: each exits once its parent has
    import multiprocessing.connection
    import threading
    parent = multiprocessing.parent_process().sentinel
    threading.Thread(target=lambda: (multiprocessing.connection.wait([parent]), os._exit(1)),
                     daemon=True).start()


def _grid_cell(cell: tuple[str, str, Recipe], grid: tuple | None = None) -> MetricsReport:
    """The test metrics of one (model kind, condition, recipe) cell of a
    grid, from the grid given or, in a worker, the worker's: the model
    fitted on the recipe's columns of the designs, a forest reading their
    slice of the designs' ranks."""
    kind, _, recipe = cell
    designs, ranked, y, gold, settings = grid or _worker_grid
    _, _, (X_train, X_test) = _recipe_design(designs, recipe)
    key, columns = _recipe_columns(designs, recipe)
    ranks = column_ranks(ranked[key], columns) if kind == "rf" else None
    model = _fit_model(kind, X_train, y, settings, ranks)
    return metrics(model.predict_many(X_test), gold)


def run_grid(corpus: Corpus, source: Resources | CorpusVectors,
             model_kinds: tuple[str, ...] = MODEL_KINDS,
             settings: TrainSettings | None = None,
             conditions: list[tuple[str, Recipe]] | None = None) -> list[GridRow]:
    """Train and evaluate every (model, condition) pair on the corpus
    train/test splits, as train_pipeline and evaluate would, reading
    each document through one CorpusVectors and each condition's scaled
    designs as columns of _grid_designs.

    The pairs are fitted in worker processes when this process may use
    more than one CPU and can fork, else in this process, with the same
    rows; no worker outlives the call, also when a fit raises."""
    settings = settings or TrainSettings()
    _check_model_kinds(model_kinds)
    test_docs = corpus.subset(Split.TEST)
    if not test_docs:
        raise ConfigError("corpus has no test documents; assign splits first")
    train_docs = _training_documents(corpus)
    conditions = conditions if conditions is not None else grid_conditions()
    designs = _grid_designs([recipe for _, recipe in conditions], (train_docs, test_docs),
                            _vectors(source))
    y, gold = _labels(train_docs), _labels(test_docs)
    # each training design is ranked once, for every forest fitted on its columns
    ranked = ({key: rank_design(matrices[0], y) for key, (_, _, matrices) in designs.items()}
              if "rf" in model_kinds else {})
    grid = designs, ranked, y, gold, settings
    cells = [(kind, name, recipe) for kind in model_kinds for name, recipe in conditions]
    # one forked worker per CPU this process may use, at most one per cell:
    # each inherits the grid, and only the reports come back
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(cells))
    if workers < 2 or not hasattr(os, "fork"):
        reports = [_grid_cell(cell, grid) for cell in cells]
    else:
        # imported here: the pool's modules would cost every command set-up
        # time, and a grid on one CPU their memory
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 _start_grid_worker, (grid,)) as pool:
            reports = list(pool.map(_grid_cell, cells))
    return [GridRow(kind, name, report) for (kind, name, _), report in zip(cells, reports)]
