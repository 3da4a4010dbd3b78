"""Layer spans recorded from outside the library.

The tracer replaces public functions and methods of the agelex modules
with timing wrappers.  A function imported by name into another module
(``from .text_analysis import analyze`` in ``features``) is replaced in
every agelex module namespace that holds it, so the wrapper sits on the
name each caller actually looks up.  Spans nest: a span's self time is
its duration minus the time covered by spans started inside it.  Work
counts are taken at the same boundaries from the wrapped calls' results.

Spans are aggregated in memory per name (calls, self and total
nanoseconds); nothing is written until the workload ends.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict

import calibrate


def _count_analyze(tracer, result):
    tracer.counts["tokens"] += len(result.tokens)
    tracer.counts["passes"] += 1


def _count_tokenize(tracer, result):
    tracer.counts["tokens"] += len(result)


def _count_preprocess(tracer, result):
    tracer.counts["passes"] += 1


def _count_extract(tracer, result):
    tracer.counts["feature_docs"] += 1


def _count_svd(tracer, result):
    tracer.counts["svd_fits"] += 1
    tracer.counts["svd_k"] += result.k


def _count_lsvc(tracer, result):
    tracer.counts["lsvc_epochs"] += result.n_epochs


def _count_rf(tracer, result):
    tracer.counts["rf_nodes"] += sum(tree.n_nodes for tree in result.trees)


# (span name, module, attribute path, work counter).  Several targets may
# share one span name; nesting between them is still resolved by the
# span stack.
TARGETS = (
    ("resources.load", "agelex.resources", "Resources.load", None),
    ("corpus.load", "agelex.corpus", "load_corpus", None),
    ("corpus.stats", "agelex.corpus", "corpus_stats", None),
    ("text_analysis.analyze", "agelex.text_analysis", "analyze", _count_analyze),
    ("text_analysis.split_sentences", "agelex.text_analysis", "split_sentences", None),
    ("text_analysis.tokenize", "agelex.text_analysis", "tokenize", _count_tokenize),
    ("features.extract", "agelex.features", "extract_all", _count_extract),
    ("vectorizer.preprocess", "agelex.vectorizer", "preprocess", _count_preprocess),
    ("vectorizer.tfidf_transform", "agelex.vectorizer", "TfidfModel.transform", None),
    ("vectorizer.tfidf_transform", "agelex.vectorizer", "TfidfModel.transform_many", None),
    ("vectorizer.tfidf_fit", "agelex.vectorizer", "fit_tfidf", None),
    ("vectorizer.svd_fit", "agelex.vectorizer", "fit_svd", _count_svd),
    ("models.load", "agelex.models", "load_model", None),
    ("models.lsvc_fit", "agelex.models", "train_linear_svc", _count_lsvc),
    ("models.rf_fit", "agelex.models", "train_random_forest", _count_rf),
    ("models.predict", "agelex.models", "LinearSvcModel.predict", None),
    ("models.predict", "agelex.models", "LinearSvcModel.predict_many", None),
    ("models.predict", "agelex.models", "RandomForestModel.predict", None),
    ("models.predict", "agelex.models", "RandomForestModel.predict_many", None),
    ("pipeline.cache_build", "agelex.pipeline", "CorpusVectors.__init__", None),
    ("pipeline.train", "agelex.pipeline", "train_pipeline", None),
    ("pipeline.evaluate", "agelex.pipeline", "TrainedPipeline.evaluate", None),
    ("pipeline.classify", "agelex.pipeline", "TrainedPipeline.classify", None),
    ("pipeline.predict_documents", "agelex.pipeline", "TrainedPipeline.predict_documents", None),
    ("pipeline.grid", "agelex.pipeline", "run_grid", None),
    ("analysis.rank", "agelex.analysis", "rank_features", None),
    ("analysis.correlation", "agelex.analysis", "correlation_matrix", None),
    ("analysis.metrics", "agelex.analysis", "metrics", None),
)


class Tracer:
    """Aggregating span recorder; inactive spans cost one flag test."""

    def __init__(self):
        self.active = False
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "total_ns": dict(self.total_ns), "counts": dict(self.counts)}

    def wrap(self, name: str, fn, count=None):
        tracer = self
        stack = self._stack
        clock = calibrate.work_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                tracer.self_ns[name] += elapsed - children
                tracer.total_ns[name] += elapsed
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(tracer, result)
            return result

        return span

    def install(self) -> None:
        """Wrap every target; agelex and its submodules must be imported."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "agelex" or n.startswith("agelex."))]
        for name, module_name, path, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, count)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, count))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
