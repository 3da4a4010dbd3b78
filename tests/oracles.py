"""Reference formulas and helpers that more than one test module uses."""
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from agelex.corpus import Document, Label
from agelex.features import (ALL_FEATURE_NAMES, DEFAULT_COEFFICIENTS, FAMILY_NAMES,
                             automated_readability, coleman_liau, dale_chall, extract_all,
                             flesch_kincaid, smog_index)
from agelex.lexicons import FrequencyDictionary, Polarity, SentimentCategory
from agelex.resources import Resources
from agelex.text_analysis import POS, POS_ORDER, SYLLABLES, Pos, tokenize

# a JSON document nested past the parser's recursion limit
NESTED_TOO_DEEPLY = "[" * 100_000 + "]" * 100_000


def type_surfaces(t) -> list[str]:
    """Each type's surface form, in type order, from an AnalyzedText."""
    return [t._entry(i)[0] for i in t.word_ids.tolist()]


def type_pos(t) -> list[Pos]:
    """Each type's part of speech, in type order, from an AnalyzedText."""
    return list(map(POS_ORDER.__getitem__, t.types[:, POS].tolist()))


def type_syllables(t) -> list[int]:
    """Each type's syllable count, in type order, from an AnalyzedText."""
    return t.types[:, SYLLABLES].tolist()


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
        frequency=frequency or FrequencyDictionary([]), sentiment=sentiment or {},
        top5000=top5000 or {}, familiar=familiar or frozenset(),
        stopwords=frozenset(), coefficients=coefficients)
    return extract_all(Document(id="d", text=text, label=Label.CHILDREN), resources)


def reference_preprocess(text, morphology, stopwords) -> list[str]:
    """The lemma chain as preprocess computed it from tokenize(): each
    token's lemma from the provider, or its lowercased surface, minus the
    stop words."""
    lemmas = [(morphology.analyze(word) or (word.lower(), Pos.OTHER))[0] for word in tokenize(text)]
    return [lemma for lemma in lemmas if lemma not in stopwords]


def _reference_median(counts: Counter) -> float:
    """Median of integers given as value -> multiplicity, as
    statistics.median computes it."""
    order = sorted(counts)
    ends = list(accumulate(counts[v] for v in order))
    n = ends[-1]
    return (order[bisect_right(ends, (n - 1) // 2)] + order[bisect_right(ends, n // 2)]) / 2


_SENTIMENT_SLOTS = tuple((pol, cat) for pol in (Polarity.NEGATIVE, Polarity.POSITIVE)
                         for cat in (SentimentCategory.OPINION, SentimentCategory.FEELING,
                                     SentimentCategory.FACT))


def reference_lexicon_row(resources, lemma: str, pos: Pos):
    """What the lexicons say about (lemma, pos): familiar, the sentiment
    slot, the top-5000 hit, its ipm (from the list, else from the
    frequency entry) and the (ipm, r, d, doc) of the exact entry, else
    the average over the lemma's entries, each read as a float, as
    Fractions or None.  The lexicons hold lowercase lemmas."""
    lemma = lemma.lower()
    entry = resources.frequency.lookup(lemma, pos) or resources.frequency.lookup_any(lemma)
    top5000 = lemma in resources.top5000
    ipm = resources.top5000.get(lemma)
    if top5000 and ipm is None and entry is not None:
        ipm = entry.ipm
    return (lemma in resources.familiar, resources.sentiment.get(lemma), top5000,
            None if ipm is None else Fraction(float(ipm)),
            None if entry is None else tuple(Fraction(float(v))
                                             for v in (entry.ipm, entry.r, entry.d, entry.doc)))


def reference_quantitative_values(t, resources) -> tuple[list[float], tuple[str, ...]]:
    """The 51 quantitative values of an analysis with a token and its
    warnings, from one walk over its types that adds each type's terms
    times its token count, the dictionary values as Fractions."""
    n, sentences = t.n_tokens, t.n_sentences
    lengths: Counter = Counter()
    syllables = polysyllables = many_syllables = difficult = 0
    hits = hit_tokens = 0
    hit_total = Fraction(0)
    sentiment = dict.fromkeys(_SENTIMENT_SLOTS, 0)
    # per part of speech: its tokens, its lemmas, and the (tokens, ipm, r,
    # d, doc) sums over its tokens in the frequency dictionary
    pos_tokens = dict.fromkeys(Pos, 0)
    pos_lemmas = {p: set() for p in Pos}
    frequency = dict.fromkeys(Pos, (0, 0, 0, 0, 0))
    views = type_surfaces(t), t.lemmas, type_pos(t), type_syllables(t), t.counts.tolist()
    for surface, lemma, p, syl, count in zip(*views):
        familiar, slot, top5000, top_ipm, values = reference_lexicon_row(resources, lemma, p)
        lengths[len(surface)] += count
        pos_tokens[p] += count
        pos_lemmas[p].add(lemma)
        syllables += syl * count
        if syl > 3:
            polysyllables += count
            if syl > 4:
                many_syllables += count
        if p is not Pos.PROPN and not familiar:
            difficult += count
        if top5000:
            hits += count
            if top_ipm is not None:
                hit_tokens += count
                hit_total += top_ipm * count
        if values is not None:
            frequency[p] = tuple(s + v * count for s, v in zip(frequency[p], (1, *values)))
        if slot is not None:
            sentiment[slot] += count

    def ttr(p: Pos) -> float:
        return len(pos_lemmas[p]) / pos_tokens[p] if pos_tokens[p] else 0.0

    coefficients = resources.coefficients
    ttr_n, ttr_a, ttr_v = ttr(Pos.NOUN), ttr(Pos.ADJ), ttr(Pos.VERB)
    asl, asw = n / sentences, syllables / n
    values = [
        sum(length * count for length, count in lengths.items()) / n,
        _reference_median(lengths),
        sum(t.sentence_symbols.tolist()) / sentences,
        _reference_median(Counter(t.sentence_symbols.tolist())),
        asw,
        many_syllables / n,
        len(set(t.lemmas)) / n,
        ttr_n, ttr_a, ttr_v,
        (ttr_a + ttr_n) / ttr_v if ttr_v > 0 else 0.0,
        flesch_kincaid(asl, asw, coefficients),
        coleman_liau(t.letter_count / n * 100.0, sentences / n * 100.0, coefficients),
        automated_readability(t.char_count / n, asl, coefficients),
        smog_index(polysyllables, sentences, coefficients),
        dale_chall(difficult / n, asl, coefficients),
    ]
    values += [hits / n, float(hit_total / hit_tokens) if hit_tokens else 0.0]
    buckets = [tuple(map(sum, zip(*frequency.values())))]
    buckets += [frequency[p] for p in (Pos.NOUN, Pos.VERB, Pos.ADJ, Pos.ADV, Pos.PROPN)]
    values += [float(bucket[column] / bucket[0]) if bucket[0] else 0.0
               for column in range(1, 5) for bucket in buckets]
    values += [pos_tokens[p] / n for p in (Pos.NOUN, Pos.VERB, Pos.ADJ)]
    values += [sentiment[slot] / n for slot in _SENTIMENT_SLOTS]
    warnings = () if buckets[0][0] else ("no_frequency_matches",)
    return values, warnings


def children_votes(trees, x: list[float]) -> int:
    """Number of trees whose leaf for the row x predicts children, each
    tree walked node by node from its root."""
    votes = 0
    for tree in trees:
        feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
        i = 0
        f = feature[0]
        while f >= 0:
            i = left[i] if x[f] <= threshold[i] else right[i]
            f = feature[i]
        votes += tree.n_children[i] >= tree.n_adult[i]
    return votes
