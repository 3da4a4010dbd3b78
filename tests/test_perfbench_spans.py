"""The library names that perfbench/spans.py wraps, and the result
attributes its work counters read, checked without running the
benchmark: a refactor that deletes or renames one fails here rather
than only in the benchmark's own smoke tests."""
import importlib
import importlib.util
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from agelex.models import train_linear_svc, train_random_forest
from agelex.text_analysis import analyze
from agelex.vectorizer import fit_svd

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def targets():
    # spans.py imports its sibling calibrate by name
    sys.path.insert(0, str(BENCH_DIR))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH_DIR / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return spans.TARGETS


def counted(targets, span, result) -> dict:
    """The work counts the span's counter takes from result."""
    tracer = SimpleNamespace(counts=defaultdict(float))
    count, = {count for name, _, _, count in targets if name == span}
    count(tracer, result)
    return dict(tracer.counts)


def test_every_target_resolves_as_the_tracer_looks_it_up(targets):
    for span, module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        if "." in path:
            # Tracer.install replaces the attribute in the class's own dict
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), (span, module_name, path)
        else:
            assert callable(getattr(owner, path, None)), (span, module_name, path)


def test_analysis_has_a_sized_token_column(resources, targets):
    # the analyze span counts len(result.tokens)
    analysis = analyze("Кот спит. Пёс бежит.", resources.morphology)
    assert len(analysis.tokens) == 4
    assert counted(targets, "text_analysis.analyze", analysis) == {"tokens": 4, "passes": 1}


def test_fit_results_carry_the_counted_sizes(targets):
    # rf_nodes, svd_k and lsvc_epochs read these attributes of the fits
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 6))
    y = np.where(X[:, 0] + 0.5 * rng.normal(size=40) > 0, 1, -1)
    forest = train_random_forest(X, y, n_trees=4, seed=1)
    nodes = sum(len(tree["nodes"]) for tree in forest.to_json_dict()["trees"])
    assert sum(tree.n_nodes for tree in forest.trees) == nodes > 4
    assert counted(targets, "models.rf_fit", forest) == {"rf_nodes": nodes}
    svd = fit_svd(X, target=0.9)
    assert 1 <= svd.k < 6
    assert counted(targets, "vectorizer.svd_fit", svd) == {"svd_fits": 1, "svd_k": svd.k}
    svc = train_linear_svc(X, y)
    assert svc.n_epochs == len(svc.objective_history) - 1 >= 1
    assert counted(targets, "models.lsvc_fit", svc) == {"lsvc_epochs": svc.n_epochs}
