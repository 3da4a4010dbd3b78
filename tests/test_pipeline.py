"""Training, prediction and the grid share one per-document input path."""
import contextlib
import json
import multiprocessing
import os
import re
import select
import signal
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import agelex.pipeline as pipeline
from agelex.analysis import metrics
from agelex.cli import main
from agelex.corpus import Corpus, Label, Split, write_corpus
from agelex.errors import ArtifactError, ConfigError, ModelError
from agelex.models import load_model, save_model
from agelex.pipeline import (MODEL_KINDS, CorpusVectors, GridRow, Recipe, TrainedPipeline,
                             TrainSettings, grid_conditions, label_to_int, run_grid,
                             train_pipeline)
from agelex.synthetic import make_corpus
from agelex.text_analysis import analyze
from agelex.vectorizer import (FRAGMENT_LIMIT, TfidfModel, augment_with_abstract, fit_tfidf,
                              preprocess)

SETTINGS = TrainSettings(n_trees=5)


def count_analysis(monkeypatch, names=("extract_all", "preprocess")) -> Counter:
    """Count calls of the named pipeline functions, by default the two
    per-document analyses the pipeline makes."""
    calls = Counter()
    for name in names:
        original = getattr(pipeline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, counted)
    return calls


@pytest.fixture(scope="module")
def corpus():
    # every third document has no abstract, so its fragments with and
    # without the abstract are the same sequence
    docs = make_corpus(n_children=10, n_adult=10, seed=11).documents
    return Corpus([replace(d, abstract=None) if i % 3 == 0 else d
                   for i, d in enumerate(docs)])


@pytest.fixture(scope="module")
def grid(corpus, resources):
    """run_grid's rows and the analysis, tf-idf fit and transform calls
    it made."""
    with pytest.MonkeyPatch.context() as mp:
        calls = count_analysis(mp, ("extract_all", "preprocess", "fit_tfidf"))
        transform_many = TfidfModel.transform_many

        def counted_transform_many(self, documents):
            calls["transform"] += len(documents)
            return transform_many(self, documents)

        mp.setattr(TfidfModel, "transform_many", counted_transform_many)
        rows = run_grid(corpus, resources, settings=SETTINGS)
    return rows, calls


def test_grid_cache_fresh_predict_and_classify_agree(corpus, resources, grid):
    rows, _ = grid
    reports = {(row.model_kind, row.condition): row.report for row in rows}
    test_docs = corpus.subset(Split.TEST)
    gold = np.array([label_to_int(d.label) for d in test_docs])
    shared = CorpusVectors(resources)
    for kind in MODEL_KINDS:
        for name, recipe in grid_conditions():
            trained = train_pipeline(corpus, shared, recipe, kind, SETTINGS)
            via_cache = trained.predict_documents(test_docs, shared).tolist()
            fresh = trained.predict_documents(test_docs, resources).tolist()
            one_by_one = [label_to_int(trained.classify(d, resources)[0]) for d in test_docs]
            assert via_cache == fresh == one_by_one, (kind, name)
            assert metrics(via_cache, gold) == reports[(kind, name)], (kind, name)


def test_grid_analyzes_each_document_once(corpus, resources, grid):
    # the plain fragment of a preview that fills it is also its fragment
    # with the abstract, so only short previews are read a second time
    _, calls = grid
    vectors = CorpusVectors(resources)
    with_abstract = sum(1 for d in corpus if d.abstract is not None)
    short = sum(1 for d in corpus if d.abstract is not None
                and len(vectors.fragment(d, False, FRAGMENT_LIMIT)) < FRAGMENT_LIMIT)
    assert 0 < short < with_abstract < len(corpus)
    assert calls["extract_all"] == len(corpus)
    assert calls["preprocess"] == len(corpus) + short


def test_grid_fits_each_tfidf_once_and_transforms_each_document_once(corpus, grid):
    # a grid's tf-idf depends only on the abstract flag, so it fits two,
    # and each transforms every document once
    _, calls = grid
    assert calls["fit_tfidf"] == 2
    assert calls["transform"] == 2 * len(corpus)


def test_grid_rows_are_train_pipeline_and_evaluate(corpus, resources, grid):
    rows, _ = grid
    test_docs = corpus.subset(Split.TEST)
    expected = []
    for kind in MODEL_KINDS:
        for name, recipe in grid_conditions():
            fresh = CorpusVectors(resources)
            trained = train_pipeline(corpus, fresh, recipe, kind, SETTINGS)
            expected.append(GridRow(kind, name, trained.evaluate(test_docs, fresh)))
    assert rows == expected


def test_grid_designs_are_the_pipeline_design_matrices(corpus, resources):
    conditions = grid_conditions()
    splits = (corpus.subset(Split.TRAIN), corpus.subset(Split.TEST))
    designs = pipeline._grid_designs([recipe for _, recipe in conditions], splits,
                                     CorpusVectors(resources))
    assert sorted(designs) == [False, True]
    for name, recipe in conditions:
        fresh = CorpusVectors(resources)
        trained = train_pipeline(corpus, fresh, recipe, "lsvc", SETTINGS)
        tfidf, scaler, matrices = pipeline._recipe_design(designs, recipe)
        assert (tfidf is None) == (trained.tfidf is None), name
        if tfidf is not None:
            assert tfidf.vocabulary == trained.tfidf.vocabulary, name
            assert tfidf.idf.tobytes() == trained.tfidf.idf.tobytes(), name
        assert scaler.mins.tobytes() == trained.scaler.mins.tobytes(), name
        assert scaler.ranges.tobytes() == trained.scaler.ranges.tobytes(), name
        for X, docs in zip(matrices, splits):
            # the model scores the same bytes in the same layout as the grid
            expected = trained._design_matrix(docs, fresh)
            assert X.flags.c_contiguous and expected.flags.c_contiguous, name
            assert X.shape == expected.shape and X.tobytes() == expected.tobytes(), name


def test_grid_fits_are_the_trained_pipelines_models(corpus, resources):
    # training one recipe fits the model the grid fits for its condition,
    # on the same design in the same memory layout, to the last bit
    fits = []

    def recording_fit(*args):
        fits.append(fit_model(*args))
        return fits[-1]

    fit_model = pipeline._fit_model
    with pytest.MonkeyPatch.context() as mp:
        # one usable CPU: the fits run in this process, where they are recorded
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        mp.setattr(pipeline, "_fit_model", recording_fit)
        run_grid(corpus, resources, settings=SETTINGS)
    conditions = [(kind, recipe) for kind in MODEL_KINDS for _, recipe in grid_conditions()]
    assert len(fits) == len(conditions) == 36
    for fit, (kind, recipe) in zip(fits, conditions):
        trained = train_pipeline(corpus, resources, recipe, kind, SETTINGS)
        assert json.dumps(fit.to_json_dict()) == json.dumps(trained.model.to_json_dict()), \
            (kind, recipe)


@pytest.mark.parametrize("inputs, idle", [
    ("baseline", "extract_all"), ("baseline+abstracts", "extract_all"), ("all", "preprocess"),
])
def test_grid_reads_only_the_inputs_its_conditions_use(corpus, resources, monkeypatch,
                                                       inputs, idle):
    # a training text no dictionary word is in raises a warning only in
    # a grid that computes features
    docs = list(corpus)
    docs[0] = replace(docs[0], text="Lorem ipsum dolor sit amet. Consectetur adipiscing elit.")
    conditions = [(name, recipe) for name, recipe in grid_conditions() if name == inputs]
    calls = count_analysis(monkeypatch)
    vectors = CorpusVectors(resources)
    rows = run_grid(Corpus(docs), vectors, ("lsvc",), SETTINGS, conditions)
    assert [row.condition for row in rows] == [inputs]
    assert calls[idle] == 0 and sum(calls.values()) > 0
    assert vectors.warning_count("no_frequency_matches") == (idle == "preprocess")


@pytest.mark.parametrize("limit", [3, FRAGMENT_LIMIT, 5000])
def test_fragment_with_abstract_is_the_augmented_preview_read(corpus, resources, limit,
                                                             monkeypatch):
    vectors = CorpusVectors(resources)
    plain = {d: vectors.fragment(d, False, limit) for d in corpus}
    reads = []

    def recorded(text, morphology, stopwords, limit):
        reads.append((text, limit))
        return preprocess(text, morphology, stopwords, limit)

    monkeypatch.setattr(pipeline, "preprocess", recorded)
    full = [d for d in corpus if d.abstract is not None and len(plain[d]) == limit]
    for d in corpus:
        expected = preprocess(augment_with_abstract(d.text, d.abstract), resources.morphology,
                              resources.stopwords, limit)
        assert vectors.fragment(d, True, limit) == expected, d.id
    # a full preview reuses its plain fragment; after a short one with an
    # abstract only the abstract is read, for the lemmas the preview lacks
    assert reads == [(d.abstract, limit - len(plain[d])) for d in corpus
                     if d.abstract is not None and d not in full]
    with_abstract = sum(1 for d in corpus if d.abstract is not None)
    if limit == FRAGMENT_LIMIT:
        assert 0 < len(full) < with_abstract


def grid_on_cpus(cpus, corpus, resources, conditions):
    """run_grid as a process that may use the given CPUs runs it, and the
    models it fitted in this process."""
    fits = []

    def recording_fit(*args):
        fits.append(fit_model(*args))
        return fits[-1]

    fit_model = pipeline._fit_model
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
        mp.setattr(pipeline, "_fit_model", recording_fit)
        return run_grid(corpus, resources, MODEL_KINDS, SETTINGS, conditions), fits


pooled = pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"),
                            reason="the grid runs in worker processes only where it can "
                                   "fork and read its CPU affinity")


@pooled
def test_pooled_grid_rows_are_the_in_process_rows(corpus, resources):
    conditions = [c for c in grid_conditions() if c[0] in ("baseline+all", "readability")]
    pooled, pooled_fits = grid_on_cpus({0, 1}, corpus, resources, conditions)
    alone, alone_fits = grid_on_cpus({0}, corpus, resources, conditions)
    # the pooled fits ran in the workers, which exited with the call
    assert (len(pooled_fits), len(alone_fits)) == (0, 4)
    assert not multiprocessing.active_children()
    assert [(row.model_kind, row.condition) for row in pooled] == [
        (kind, name) for kind in MODEL_KINDS for name, _ in conditions]
    assert pooled == alone


def test_a_fit_that_fails_in_a_worker_fails_the_grid_as_in_process(corpus, resources):
    # a training split of one class cannot be fitted
    one_class = Corpus([d for d in corpus if d.split is Split.TEST or d.label is Label.CHILDREN])
    errors = []
    for cpus in ({0, 1}, {0}):
        with pytest.raises(ModelError, match="single class") as excinfo:
            grid_on_cpus(cpus, one_class, resources, grid_conditions()[:2])
        assert not multiprocessing.active_children()
        errors.append((type(excinfo.value), str(excinfo.value)))
    assert errors[0] == errors[1]


@pooled
def test_grid_workers_exit_when_the_grid_process_is_killed(corpus, resources):
    # a grid process killed mid-fit cannot shut its pool down; its workers
    # then exit by themselves, and with them the last holders of `done`
    ready_r, ready_w = os.pipe()
    done_r, done_w = os.pipe()

    def stuck_fit(*args):
        os.write(ready_w, os.getpid().to_bytes(8, "little"))
        time.sleep(60)

    def grid_process():
        pipeline._fit_model = stuck_fit
        grid_on_cpus({0, 1}, corpus, resources, grid_conditions()[:2])

    process = multiprocessing.get_context("fork").Process(target=grid_process)
    process.start()
    os.close(done_w)
    workers = []
    try:
        while len(workers) < 2 and select.select([ready_r], [], [], 60)[0]:
            workers.append(int.from_bytes(os.read(ready_r, 8), "little"))
        assert len(workers) == 2
        process.kill()
        process.join(10)
        assert select.select([done_r], [], [], 30)[0] and os.read(done_r, 1) == b""
    finally:
        process.kill()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for fd in (ready_r, ready_w, done_r):
            os.close(fd)


@pytest.mark.parametrize("kinds", [(), ("lsvc", "svm")])
def test_grid_rejects_an_empty_or_unknown_model_list(corpus, resources, kinds):
    with pytest.raises(ConfigError, match="model kind"):
        run_grid(corpus, resources, kinds, SETTINGS)


def test_shared_cache_trains_what_a_fresh_cache_trains(corpus, resources):
    # each case differs from the first in one part of the tf-idf key
    # the same number of training documents, one of them another
    swapped = {corpus.subset(Split.TRAIN)[0].id: Split.TEST,
               corpus.subset(Split.TEST)[0].id: Split.TRAIN}
    resplit = Corpus([replace(d, split=swapped.get(d.id, d.split)) for d in corpus])
    cases = [
        (corpus, Recipe(), SETTINGS),
        (corpus, Recipe(use_abstract=True), SETTINGS),
        (resplit, Recipe(), SETTINGS),
    ]
    shared = CorpusVectors(resources)
    for case in cases + cases[::-1]:
        data, recipe, settings = case
        fresh = train_pipeline(data, resources, recipe, "lsvc", settings)
        cached = train_pipeline(data, shared, recipe, "lsvc", settings)
        assert cached.to_json_dict() == fresh.to_json_dict(), case


def test_shared_cache_serves_a_tfidf_it_did_not_fit(corpus, resources):
    shared = CorpusVectors(resources)
    trained = train_pipeline(corpus, shared, Recipe(use_abstract=True), "lsvc", SETTINGS)
    loaded = TrainedPipeline.from_json_dict(trained.to_json_dict())
    # the same fitted tf-idf read with a shorter fragment is another row
    shorter = replace(trained, fragment_limit=5)
    docs = list(corpus)
    for pipeline_ in (trained, loaded, shorter, trained):
        assert pipeline_.predict_documents(docs, shared).tolist() == \
            pipeline_.predict_documents(docs, resources).tolist()


@pytest.mark.parametrize("recipe, idle", [
    (Recipe(use_tfidf=True, use_abstract=True), "extract_all"),
    (Recipe(use_tfidf=False, families=("general", "publishing")), "preprocess"),
])
def test_recipe_reads_only_the_inputs_it_uses(corpus, resources, monkeypatch, recipe, idle):
    calls = count_analysis(monkeypatch)
    trained = train_pipeline(corpus, resources, recipe, "lsvc", SETTINGS)
    test_docs = corpus.subset(Split.TEST)
    trained.evaluate(test_docs, resources)
    trained.classify(test_docs[0], resources)
    assert calls[idle] == 0
    assert sum(calls.values()) > 0


def test_equal_texts_with_different_ids_are_each_analyzed(corpus, resources, monkeypatch):
    calls = count_analysis(monkeypatch)
    doc = corpus.documents[1]
    twin = replace(doc, id=doc.id + "-twin")
    vectors = CorpusVectors(resources)
    for d in (doc, twin, doc, twin):
        vectors.features(d)
        vectors.fragment(d, False, FRAGMENT_LIMIT)
    assert calls == {"extract_all": 2, "preprocess": 2}
    assert vectors.features(doc) == vectors.features(twin)


@pytest.mark.parametrize("heuristic", [False, True])
def test_preview_lemmas_are_the_analysis_lemmas(resources, heuristic_resources, heuristic):
    # the tf-idf fragment of a preview is the head of the stopword-
    # filtered lemma column of its feature analysis, so one analysis
    # could feed both; joined previews hold more than 256 lemmas
    res = heuristic_resources if heuristic else resources
    docs = make_corpus(20, 20, seed=3, resources=resources).documents
    docs = docs + [replace(docs[0], id="oov", text="Qwerty КРАСИВЫЙ бежать. Zzz-Yyy Маша РАДОСТЬ!")]
    docs = docs + [replace(docs[i], id=f"joined{i}", text=" ".join(d.text for d in docs[i:i + n]))
                   for i, n in ((0, 5), (3, 12), (20, 40))]
    vectors = CorpusVectors(res)
    longest = 0
    for doc in docs:
        t = analyze(doc.text, res.morphology, res.abbreviations)
        lemmas = [l for l in (t.lemmas[i] for i in t.tokens) if l not in res.stopwords]
        longest = max(longest, len(lemmas))
        for limit in (1, 7, FRAGMENT_LIMIT, 2000):
            assert vectors.fragment(doc, False, limit) == lemmas[:limit], (doc.id, limit)
    assert longest > 2000


def test_repeated_id_with_another_text_is_not_merged(corpus, resources):
    first, second = corpus.documents[1], corpus.documents[2]
    impostor = replace(second, id=first.id)
    vectors = CorpusVectors(resources)
    vectors.features(first)
    vectors.fragment(first, True, FRAGMENT_LIMIT)
    assert vectors.features(impostor) == CorpusVectors(resources).features(second)
    assert vectors.fragment(impostor, True, FRAGMENT_LIMIT) == \
        CorpusVectors(resources).fragment(second, True, FRAGMENT_LIMIT)


def test_documents_hash_by_value_and_differ_by_label_and_split(corpus, resources, monkeypatch):
    doc = corpus.documents[1]
    twin = replace(doc)
    assert twin is not doc and twin == doc and hash(twin) == hash(doc)
    relabeled = replace(doc, label=Label.ADULT if doc.label is Label.CHILDREN else Label.CHILDREN)
    moved = replace(doc, split=Split.TEST if doc.split is Split.TRAIN else Split.TRAIN)
    calls = count_analysis(monkeypatch)
    vectors = CorpusVectors(resources)
    for d in (doc, twin, relabeled, moved, relabeled, twin):
        vectors.features(d)
        vectors.fragment(d, False, FRAGMENT_LIMIT)
    assert calls == {"extract_all": 3, "preprocess": 3}


def test_train_command_analyzes_each_training_document_once(tmp_path, corpus, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    calls = count_analysis(monkeypatch)
    rc = main(["train", "--corpus", str(path), "--out", str(tmp_path / "out"),
               "--model", "lsvc", "--features", "general"])
    assert rc == 0
    n_train = len(corpus.subset(Split.TRAIN))
    assert calls == {"extract_all": n_train, "preprocess": n_train}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_saved_pipeline_predicts_identically(corpus, resources, tmp_path, kind):
    recipe = dict(grid_conditions())["baseline+all"]
    trained = train_pipeline(corpus, resources, recipe, kind, SETTINGS)
    save_model(trained, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    docs = list(corpus)
    assert loaded.predict_documents(docs, resources).tolist() == \
        trained.predict_documents(docs, resources).tolist()
    for doc in docs:
        assert loaded.classify(doc, resources) == trained.classify(doc, resources)


def _drop_last(values):
    return values[:-1]


# (model kind, corruption of the pipeline payload); every case leaves one
# stage reading a different number of columns than the one before writes
CORRUPT_WIDTHS = {
    "idf-shorter-than-vocabulary": ("lsvc", lambda m: m["tfidf"].update(idf=_drop_last(m["tfidf"]["idf"]))),
    "scaler-one-column-short": ("rf", lambda m: m["scaler"].update(
        mins=_drop_last(m["scaler"]["mins"]), ranges=_drop_last(m["scaler"]["ranges"]))),
    "lsvc-weights-not-scaler-width": ("lsvc", lambda m: m["model"]["payload"].update(
        weights=_drop_last(m["model"]["payload"]["weights"]))),
    "forest-features-not-scaler-width": ("rf", lambda m: m["model"]["payload"].update(
        n_features=m["model"]["payload"]["n_features"] + 1)),
}


@pytest.fixture(scope="module")
def saved_pipelines(corpus, resources, tmp_path_factory):
    recipe = dict(grid_conditions())["baseline+all"]
    paths = {}
    for kind in MODEL_KINDS:
        paths[kind] = tmp_path_factory.mktemp(kind) / "model.json"
        save_model(train_pipeline(corpus, resources, recipe, kind, SETTINGS), paths[kind])
    return paths


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_pipelines_compare_by_identity(saved_pipelines, kind):
    first, second = (load_model(saved_pipelines[kind]) for _ in range(2))
    assert (first == first, first == second) == (True, False)


@pytest.mark.parametrize("case", CORRUPT_WIDTHS)
def test_pipeline_width_mismatch_rejected(saved_pipelines, tmp_path, case):
    kind, corrupt = CORRUPT_WIDTHS[case]
    payload = json.loads(saved_pipelines[kind].read_text(encoding="utf-8"))
    load_model(saved_pipelines[kind])  # the uncorrupted file loads
    corrupt(payload["model"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ArtifactError) as excinfo:
        load_model(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("key, value", [
    ("fragment_limit", 0), ("fragment_limit", -3), ("fragment_limit", 2.7),
    ("fragment_limit", 2.0), ("fragment_limit", True), ("fragment_limit", "12"),
    ("fragment_limit", None), ("seed", 1.5), ("seed", False), ("seed", "7"),
])
def test_pipeline_integers_must_be_json_integers(saved_pipelines, tmp_path, key, value):
    # read as int() they would load as another value, or a limit that
    # classify rejects
    payload = json.loads(saved_pipelines["lsvc"].read_text(encoding="utf-8"))
    payload["model"][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ArtifactError, match="fragment_limit must be an integer of at least 1 "
                                            "and seed an integer") as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}: ")


_NODE_VALUE_ERROR = "tree 0 node 0: a feature, child or count is no integer"
# written as the number literal 1e999, which parses as infinity
_PAST_FLOAT_RANGE = "<1e999>"
_NUMBER, _NUMBERS = "must be a finite number", "must be a list of finite numbers"
# (model kind, path to a value in the pipeline payload, the value written
# there or a function of the value there, what the error says)
CORRUPT_VALUES = {
    "nan-weight": ("lsvc", ("model", "payload", "weights", 0), float("nan"),
                   "not a valid model file: NaN is not a finite number"),
    "infinite-idf": ("lsvc", ("tfidf", "idf", 0), float("inf"), "Infinity is not a finite number"),
    "negative-infinite-threshold": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 1),
                                    float("-inf"), "-Infinity is not a finite number"),
    "string-nan-bias": ("lsvc", ("model", "payload", "bias"), "nan", "bias " + _NUMBER),
    "string-inf-bias": ("lsvc", ("model", "payload", "bias"), "inf", "bias " + _NUMBER),
    "bool-bias": ("lsvc", ("model", "payload", "bias"), True, "bias " + _NUMBER),
    "huge-integer-bias": ("lsvc", ("model", "payload", "bias"), 10 ** 400, "bias " + _NUMBER),
    "overflowing-weight": ("lsvc", ("model", "payload", "weights", 0), _PAST_FLOAT_RANGE,
                           "weights " + _NUMBERS),
    "column-of-weights": ("lsvc", ("model", "payload", "weights"),
                          lambda weights: [[w] for w in weights], "weights " + _NUMBERS),
    "overflowing-idf": ("lsvc", ("tfidf", "idf", 0), _PAST_FLOAT_RANGE, "tfidf.idf " + _NUMBERS),
    "overflowing-scaler-min": ("rf", ("scaler", "mins", 0), _PAST_FLOAT_RANGE,
                               "scaler.mins " + _NUMBERS),
    "string-scaler-range": ("rf", ("scaler", "ranges", 0), str, "scaler.ranges " + _NUMBERS),
    "overflowing-threshold": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 1),
                              _PAST_FLOAT_RANGE, "tree 0 thresholds " + _NUMBERS),
    "string-threshold": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 1), str,
                         "tree 0 thresholds " + _NUMBERS),
    "float-n-docs": ("lsvc", ("tfidf", "n_docs"), 2.7,
                     "tfidf.n_docs must be an integer of at least 1, got 2.7"),
    "bool-n-docs": ("lsvc", ("tfidf", "n_docs"), True, "tfidf.n_docs must be an integer"),
    "string-n-docs": ("rf", ("tfidf", "n_docs"), str, "tfidf.n_docs must be an integer"),
    "negative-n-docs": ("rf", ("tfidf", "n_docs"), -5,
                        "tfidf.n_docs must be an integer of at least 1, got -5"),
    "bool-n-epochs": ("lsvc", ("model", "payload", "n_epochs"), True, "n_epochs must be an integer"),
    "float-n-epochs": ("lsvc", ("model", "payload", "n_epochs"), 3.9, "n_epochs must be an integer"),
    "float-n-features": ("rf", ("model", "payload", "n_features"), float,
                         "n_features must be an integer, got "),
    "bool-node-feature": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 0), True,
                          _NODE_VALUE_ERROR),
    "float-node-left": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 2), float,
                        _NODE_VALUE_ERROR),
    "string-node-right": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 3), str,
                          _NODE_VALUE_ERROR),
    "float-node-children": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 4), float,
                            _NODE_VALUE_ERROR),
    "bool-node-adult": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 5), False,
                        _NODE_VALUE_ERROR),
    "string-use-abstract": ("lsvc", ("recipe", "use_abstract"), "false",
                            "recipe.use_abstract must be a boolean, got 'false'"),
    "int-use-tfidf": ("rf", ("recipe", "use_tfidf"), 1, "recipe.use_tfidf must be a boolean"),
    "rf-over-linear-svc": ("lsvc", ("model_kind",), "rf",
                           "unknown inner model kind 'linear_svc' for model_kind 'rf'"),
    "lsvc-over-random-forest": ("rf", ("model_kind",), "lsvc",
                                "unknown inner model kind 'random_forest' for model_kind 'lsvc'"),
    "unknown-model-kind": ("lsvc", ("model_kind",), "svm", "for model_kind 'svm'"),
    "repeated-term": ("lsvc", ("tfidf", "vocabulary"), lambda terms: [terms[0]] + terms[:-1],
                      "tfidf.vocabulary must be a list of distinct strings"),
    "number-term": ("rf", ("tfidf", "vocabulary", 0), 7,
                    "tfidf.vocabulary must be a list of distinct strings"),
    "string-of-terms": ("rf", ("tfidf", "vocabulary"), "".join,
                        "tfidf.vocabulary must be a list of distinct strings"),
    "bool-among-weights": ("lsvc", ("model", "payload", "weights", 1), True, "weights " + _NUMBERS),
    "bool-among-thresholds": ("rf", ("model", "payload", "trees", 0, "nodes", 0, 1), False,
                              "tree 0 thresholds " + _NUMBERS),
}


@pytest.mark.parametrize("case", CORRUPT_VALUES)
def test_pipeline_value_outside_the_format_rejected(saved_pipelines, tmp_path, case, capsys):
    kind, path, value, message = CORRUPT_VALUES[case]
    payload = json.loads(saved_pipelines[kind].read_text(encoding="utf-8"))
    entry = payload["model"]
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value(entry[path[-1]]) if callable(value) else value
    corrupt = tmp_path / "model.json"
    corrupt.write_text(json.dumps(payload).replace(json.dumps(_PAST_FLOAT_RANGE), "1e999"),
                       encoding="utf-8")
    with pytest.raises(ArtifactError) as excinfo:
        load_model(corrupt)
    assert str(excinfo.value).startswith(f"{corrupt}: ") and message in str(excinfo.value)
    assert main(["classify", "--model-file", str(corrupt), "--text", "Кот спит."]) == 1
    assert capsys.readouterr().err == f"error: {excinfo.value}\n"


def test_pipeline_with_an_svd_stage_must_be_retrained(saved_pipelines, tmp_path):
    # the linear SVC's weights hold the SVD, so no pipeline file has one
    payload = json.loads(saved_pipelines["lsvc"].read_text(encoding="utf-8"))
    assert "svd" not in payload["model"]
    width = len(payload["model"]["scaler"]["mins"])
    payload["model"]["svd"] = {"mean": [0.0] * width, "components": [[1.0] + [0.0] * (width - 1)],
                               "retained": 0.95, "target": 0.95}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ArtifactError, match="retrain") as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_linear_pipeline_without_svd_hyperparams_loads(saved_pipelines, corpus, resources,
                                                       tmp_path):
    # files fitted on the scaled matrix without an SVD record none
    payload = json.loads(saved_pipelines["lsvc"].read_text(encoding="utf-8"))
    del payload["model"]["model"]["payload"]["hyperparams"]["svd"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    docs = list(corpus)
    assert np.array_equal(load_model(path).predict_documents(docs, resources),
                          load_model(saved_pipelines["lsvc"]).predict_documents(docs, resources))


def test_blank_abstract_is_no_abstract(corpus, resources, monkeypatch):
    # a whitespace-only abstract is read as none: the same fragments, so
    # the same tf-idf and the same rows
    docs = [replace(d, abstract=" \u3000\n") for d in corpus.subset(Split.TRAIN)]
    calls = count_analysis(monkeypatch, ("preprocess",))
    vectors = CorpusVectors(resources)
    plain, augmented = (vectors.fragments(docs, flag, FRAGMENT_LIMIT) for flag in (False, True))
    assert all(a is b for a, b in zip(augmented, plain))
    tfidfs = [fit_tfidf(fragments, 100) for fragments in (plain, augmented)]
    assert tfidfs[0].vocabulary == tfidfs[1].vocabulary
    assert tfidfs[0].idf.tobytes() == tfidfs[1].idf.tobytes()
    assert (tfidfs[0].transform_many(plain).tobytes()
            == tfidfs[1].transform_many(augmented).tobytes())
    assert calls == {"preprocess": len(docs)}


@pytest.mark.parametrize("corrupt, message", [
    (lambda m: m["model"].update(kind="mystery"), "unknown inner model kind 'mystery'"),
    (lambda m: m["recipe"].update(families=["bogus"]), "unknown feature families"),
], ids=["unknown-inner-kind", "unknown-family"])
def test_pipeline_load_errors_name_the_file(saved_pipelines, tmp_path, corrupt, message):
    payload = json.loads(saved_pipelines["lsvc"].read_text(encoding="utf-8"))
    corrupt(payload["model"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ArtifactError, match=message) as excinfo:
        load_model(path)
    assert str(excinfo.value).startswith(f"{path}: ")


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # the example follows the API: it runs as printed on a small corpus
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library use\n+```python\n(.*?)^```", readme, re.M | re.S).group(1)
    write_corpus(make_corpus(20, 20, seed=7), tmp_path / "corpus.jsonl")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
