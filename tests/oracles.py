"""Reference formulas and helpers that more than one test module uses."""
from agelex.corpus import Document, Label
from agelex.features import ALL_FEATURE_NAMES, DEFAULT_COEFFICIENTS, FAMILY_NAMES, extract_all
from agelex.lexicons import FrequencyDictionary, SentimentLexicon, WordList
from agelex.resources import Resources
from agelex.text_analysis import Pos, tokenize

# a JSON document nested past the parser's recursion limit
NESTED_TOO_DEEPLY = "[" * 100_000 + "]" * 100_000


def gini_impurity(counts) -> float:
    """Gini impurity of a class-count vector; 0 for a pure node."""
    total = float(sum(counts))
    if total == 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts)


def by_family(fv) -> dict[str, dict[str, float]]:
    """An extract_all vector sliced by FAMILY_NAMES: family -> {name: value}."""
    assert len(fv.values) == len(ALL_FEATURE_NAMES)
    values = dict(zip(ALL_FEATURE_NAMES, fv.values))
    return {family: {name: values[name] for name in names} for family, names in FAMILY_NAMES.items()}


def text_features(text, morphology, coefficients=DEFAULT_COEFFICIENTS, frequency=None,
                  sentiment=None, top5000=None, familiar=None):
    """extract_all of an unrated document holding text, read with the
    morphology and no abbreviations, under the given lexicons; a lexicon
    not given is empty."""
    resources = Resources(
        morphology=morphology, abbreviations=frozenset(),
        frequency=frequency or FrequencyDictionary([]), sentiment=sentiment or SentimentLexicon({}),
        top5000=top5000 or WordList({}), familiar=familiar or WordList({}),
        stopwords=frozenset(), coefficients=coefficients)
    return extract_all(Document(id="d", text=text, label=Label.CHILDREN), resources)


def reference_preprocess(text, morphology, stopwords) -> list[str]:
    """The lemma chain as preprocess computed it from tokenize(): each
    token's lemma from the provider, or its lowercased surface, minus the
    stop words."""
    lemmas = [(morphology.analyze(word) or (word.lower(), Pos.OTHER))[0] for word in tokenize(text)]
    return [lemma for lemma in lemmas if lemma not in stopwords]
