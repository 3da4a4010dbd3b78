"""Reference formulas and helpers that more than one test module uses."""
from agelex.features import FAMILY_NAMES
from agelex.text_analysis import Pos, tokenize


def gini_impurity(counts) -> float:
    """Gini impurity of a class-count vector; 0 for a pure node."""
    total = float(sum(counts))
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)


def by_family(fv) -> dict[str, dict[str, float]]:
    """A quantitative_features or extract_all vector sliced by
    FAMILY_NAMES: family -> {name: value}, for the families it holds."""
    families, start = {}, 0
    for family, names in FAMILY_NAMES.items():
        if start < len(fv.names):
            assert fv.names[start:start + len(names)] == names
            families[family] = dict(zip(names, fv.values[start:start + len(names)]))
        start += len(names)
    assert start >= len(fv.names)
    return families


def reference_preprocess(text, morphology, stopwords) -> list[str]:
    """The lemma chain as preprocess computed it from tokenize(): each
    token's lemma from the provider, or its lowercased surface, minus the
    stop words."""
    lemmas = [(morphology.analyze(word) or (word.lower(), Pos.OTHER))[0] for word in tokenize(text)]
    return [lemma for lemma in lemmas if lemma not in stopwords]
