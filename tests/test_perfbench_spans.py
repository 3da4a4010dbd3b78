"""The library names that perfbench/spans.py wraps, checked without
running the benchmark: a refactor that deletes or renames one fails here
rather than only in the benchmark's own smoke tests."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from agelex.text_analysis import analyze

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


def test_every_target_resolves_as_the_tracer_looks_it_up(targets):
    for span, module_name, path, _ in targets:
        owner = importlib.import_module(module_name)
        if "." in path:
            # Tracer.install replaces the attribute in the class's own dict
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(owner, cls_name)), (span, module_name, path)
        else:
            assert callable(getattr(owner, path, None)), (span, module_name, path)


def test_analysis_has_a_sized_token_column(resources):
    # the analyze span counts len(result.tokens)
    assert len(analyze("Кот спит. Пёс бежит.", resources.morphology).tokens) == 4
