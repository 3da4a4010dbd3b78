import pytest

from agelex.resources import Resources
from agelex.text_analysis import DictionaryMorphology


@pytest.fixture(scope="session")
def resources() -> Resources:
    return Resources.bundled()


@pytest.fixture(scope="session")
def morph(resources) -> DictionaryMorphology:
    return resources.morphology


@pytest.fixture(scope="session")
def heuristic_resources() -> Resources:
    return Resources.load(heuristic_fallback=True)
