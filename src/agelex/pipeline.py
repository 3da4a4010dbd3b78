"""End-to-end training pipelines and the experiment grid.

A Recipe says which inputs a model sees: the tf-idf bag of words (fitted
on 256-lemma training fragments, optionally with the abstract appended
to the preview) and any subset of the six feature families computed on
full previews.  train_pipeline fits the vectorizers and scaler on the
training split only and trains one of the two classifiers.  The linear
SVC is fitted on a variance-preserving SVD of the scaled matrix unless
that is turned off, and the SVD is then folded into its weights, so a
trained pipeline is only its vectorizers, scaler and model.  The grid
mirrors the published experiment: a baseline bag-of-words model against
every combination of added feature families and publishing attributes.

Every document is read through a CorpusVectors, which analyzes it once
and keeps its feature vector, warnings included, and its tf-idf
fragments: training, batch prediction, single-text classification, the
grid and the command-line feature tables all read documents through it.
Pass one instance as ``cache`` to reuse them across calls on the same
documents.

Training has one path: each grid condition, and train_pipeline's one
recipe, fits on its columns of one scaled design per abstract flag (see
_grid_designs), so a trained pipeline's model is the grid's fit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import MetricsReport, metrics
from .corpus import Corpus, Document, Label, Split
from .errors import ArtifactError, ConfigError, ModelError
from .features import ALL_FEATURE_NAMES, FAMILY_NAMES, FeatureVector, extract_all, schema_hash
from .models import (CHILDREN, ADULT, LinearSvcModel, RandomForestModel, json_exact,
                     json_floats, register_model_kind, train_linear_svc, train_random_forest)
from .resources import Resources
from .vectorizer import (FRAGMENT_LIMIT, MAX_VOCABULARY, SVD_TARGET, MinMaxScaler,
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
        # canonical family order, deduplicated
        ordered = tuple(f for f in FAMILY_NAMES if f in self.families)
        object.__setattr__(self, "families", ordered)
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
            if key[1] and plain is not None and len(plain) == limit:
                # normalizing never acts across whitespace, so a preview
                # that fills the fragment is read before its abstract
                self._fragments[key] = plain
            else:
                text = augment_with_abstract(doc.text, doc.abstract) if key[1] else doc.text
                self._fragments[key] = preprocess(text, self.resources.morphology,
                                                  self.resources.stopwords, limit)
        return self._fragments[key]

    def fragments(self, docs: list[Document], use_abstract: bool, limit: int) -> list[list[str]]:
        """One fragment per document, as fragment() gives it."""
        return [self.fragment(doc, use_abstract, limit) for doc in docs]


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

    def predict_documents(self, docs: list[Document], resources: Resources,
                          cache: CorpusVectors | None = None) -> np.ndarray:
        if not docs:
            raise ModelError("no documents to classify")
        X = self._design_matrix(docs, cache if cache is not None else CorpusVectors(resources))
        return self.model.predict_many(X)

    def classify(self, doc: Document, resources: Resources,
                 cache: CorpusVectors | None = None) -> tuple[Label, float]:
        """Label one document; the score is the signed margin for the
        linear model and the winning vote share for the forest."""
        X = self._design_matrix([doc], cache if cache is not None else CorpusVectors(resources))
        label_int, score = self.model.predict(X[0])
        return (Label.CHILDREN if label_int == CHILDREN else Label.ADULT), score

    def evaluate(self, docs: list[Document], resources: Resources,
                 cache: CorpusVectors | None = None,
                 positive: Label = Label.CHILDREN) -> MetricsReport:
        return metrics(self.predict_documents(docs, resources, cache), _labels(docs), positive)

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
    svc_c: float = 1.0
    svc_max_epochs: int = 200
    svc_tolerance: float = 1e-5
    n_trees: int = 100
    max_terms: int = MAX_VOCABULARY
    fragment_limit: int = FRAGMENT_LIMIT
    # auto: fit the lsvc on the SVD that keeps svd_target of the scaled
    # matrix's variance, then fold the SVD into its weights; off: fit it
    # on the scaled matrix.  The forest never uses the SVD.
    svd: str = "auto"
    svd_target: float = SVD_TARGET

    def __post_init__(self):
        if self.svd not in ("auto", "off"):
            raise ConfigError(f"svd must be auto or off, got {self.svd!r}")


def _training_documents(corpus: Corpus, settings: TrainSettings) -> list[Document]:
    if settings.fragment_limit < 1:
        raise ConfigError(f"fragment limit must be positive, got {settings.fragment_limit}")
    train_docs = corpus.subset(Split.TRAIN)
    if not train_docs:
        raise ConfigError("corpus has no training documents")
    return train_docs


def _labels(docs: list[Document]) -> np.ndarray:
    return np.array([label_to_int(d.label) for d in docs], dtype=np.int64)


def _fit_model(kind: str, X: np.ndarray, y: np.ndarray,
               settings: TrainSettings) -> LinearSvcModel | RandomForestModel:
    """The model of a pipeline of the given kind, fitted on its scaled
    design matrix."""
    if kind == "rf":
        return train_random_forest(X, y, n_trees=settings.n_trees, seed=settings.seed)
    svd = fit_svd(X, settings.svd_target) if settings.svd == "auto" else None
    model = train_linear_svc(X if svd is None else svd.transform(X), y, C=settings.svc_c,
                             max_epochs=settings.svc_max_epochs, tolerance=settings.svc_tolerance)
    if svd is None:
        return model
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


def train_pipeline(corpus: Corpus, resources: Resources, recipe: Recipe,
                   model_kind: str, settings: TrainSettings | None = None,
                   cache: CorpusVectors | None = None) -> TrainedPipeline:
    """Fit a recipe on the corpus training split: the grid's fit of it."""
    settings = settings or TrainSettings()
    _check_model_kinds((model_kind,))
    train_docs = _training_documents(corpus, settings)
    designs = _grid_designs([recipe], (train_docs,), settings,
                            cache if cache is not None else CorpusVectors(resources))
    tfidf, scaler, (X,) = _recipe_design(designs, recipe)
    return TrainedPipeline(recipe=recipe, model_kind=model_kind,
                           model=_fit_model(model_kind, X, _labels(train_docs), settings),
                           scaler=scaler, tfidf=tfidf,
                           fragment_limit=settings.fragment_limit, seed=settings.seed)


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
                  settings: TrainSettings,
                  vectors: CorpusVectors) -> dict[bool | None, tuple]:
    """The designs the recipes read, by tf-idf abstract flag: the tf-idf
    fitted on the first split without (False) or with (True) abstracts,
    then all 56 features, or the features alone (None) when no recipe
    reads a tf-idf.  Each maps to its tf-idf (or None), the scaler fitted
    on the first split, and one scaled matrix per split.  A block no
    recipe reads is not built.

    Min-max scaling is fitted column by column, so a recipe's scaler and
    scaled designs are column slices of these (see _recipe_design)."""
    limit = settings.fragment_limit
    features = None
    if any(recipe.families for recipe in recipes):
        features = [vectors.feature_matrix(docs, ALL_FEATURE_NAMES) for docs in splits]
    designs = {}
    # plain fragments first, which the abstract ones of full previews reuse
    flags = sorted({recipe.use_abstract for recipe in recipes if recipe.use_tfidf})
    for flag in flags or ([None] if features is not None else []):
        tfidf, raw = None, features
        if flag is not None:
            tfidf = fit_tfidf(vectors.fragments(splits[0], flag, limit), settings.max_terms)
            raw = [tfidf.transform_many(vectors.fragments(docs, flag, limit)) for docs in splits]
            if features is not None:
                raw = [np.hstack(blocks) for blocks in zip(raw, features)]
        scaler = fit_minmax(raw[0])
        designs[flag] = tfidf, scaler, [scaler.transform(X) for X in raw]
    return designs


def _recipe_design(designs: dict, recipe: Recipe
                   ) -> tuple[TfidfModel | None, MinMaxScaler, list[np.ndarray]]:
    """The recipe's tf-idf, scaler and scaled designs: its columns of one
    of _grid_designs, the matrices taken into C-contiguous copies
    (X[:, columns] would give Fortran-ordered ones)."""
    tfidf, scaler, matrices = designs[recipe.use_abstract if recipe.use_tfidf
                                      else next(iter(designs))]
    width = len(tfidf.vocabulary) if tfidf is not None else 0
    columns = list(range(width)) if recipe.use_tfidf else []
    columns += [width + _COLUMN_OF[feature] for feature in recipe.feature_names]
    return (tfidf if recipe.use_tfidf else None,
            MinMaxScaler(scaler.mins[columns], scaler.ranges[columns]),
            [X.take(columns, axis=1) for X in matrices])


def run_grid(corpus: Corpus, resources: Resources,
             model_kinds: tuple[str, ...] = MODEL_KINDS,
             settings: TrainSettings | None = None,
             conditions: list[tuple[str, Recipe]] | None = None,
             cache: CorpusVectors | None = None) -> list[GridRow]:
    """Train and evaluate every (model, condition) pair on the corpus
    train/test splits, as train_pipeline and evaluate would, reading
    each document through one cache and each condition's scaled designs
    as columns of _grid_designs."""
    settings = settings or TrainSettings()
    _check_model_kinds(model_kinds)
    test_docs = corpus.subset(Split.TEST)
    if not test_docs:
        raise ConfigError("corpus has no test documents; assign splits first")
    train_docs = _training_documents(corpus, settings)
    conditions = conditions if conditions is not None else grid_conditions()
    designs = _grid_designs([recipe for _, recipe in conditions], (train_docs, test_docs),
                            settings, cache if cache is not None else CorpusVectors(resources))
    y, gold = _labels(train_docs), _labels(test_docs)
    rows = []
    for kind in model_kinds:
        for name, recipe in conditions:
            _, _, (X_train, X_test) = _recipe_design(designs, recipe)
            model = _fit_model(kind, X_train, y, settings)
            rows.append(GridRow(kind, name, metrics(model.predict_many(X_test), gold)))
    return rows
