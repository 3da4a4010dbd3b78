"""The six feature families and the fixed 56-column schema.

Families, in schema order: general text statistics (11), readability
indices (5), frequency-dictionary features (26), part-of-speech shares
(3), sentiment shares (6) and the age-rating one-hot (5).  The full
column order is frozen in ALL_FEATURE_NAMES and fingerprinted by
schema_hash(); trained models refuse inputs with a different schema.

Features are always computed on the full preview text, never on the
truncated fragments used by the bag-of-words vectorizer.

The five quantitative families read the per-type table of
text_analysis.analyze, so each lookup happens once per distinct surface
and every count is a sum of per-type token counts; features.md says how
means and medians are computed.
"""
from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import mul
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus import AgeRating, Document
from .errors import ConfigError, FeatureError
from .lexicons import FrequencyDictionary, SentimentLexicon, WordList, Polarity, SentimentCategory
from .text_analysis import AnalyzedText, Pos, analyze

if TYPE_CHECKING:
    from .resources import Resources

GENERAL_NAMES = (
    "avg_words_len", "med_words_len", "avg_sent_len", "med_sent_len",
    "avg_count_syl", "many_syllables",
    "ttr", "ttr_n", "ttr_a", "ttr_v", "nav",
)
READABILITY_NAMES = ("index_fk", "index_cl", "index_ari", "index_smog", "index_dc")
LEXICAL_NAMES = (
    "5000_proc", "5000_freq",
    "words_fr", "s_fr", "v_fr", "adj_fr", "adv_fr", "prop_fr",
    "words_r", "s_r", "v_r", "adj_r", "adv_r", "prop_r",
    "words_d", "s_d", "v_d", "adj_d", "adv_d", "prop_d",
    "words_doc", "s_doc", "v_doc", "adj_doc", "adv_doc", "prop_doc",
)
GRAMMATICAL_NAMES = ("count_n", "count_v", "count_a")
SENTIMENT_NAMES = (
    "neg_opinion", "neg_feeling", "neg_fact",
    "pos_opinion", "pos_feeling", "pos_fact",
)
PUBLISHING_NAMES = ("age_rating_0", "age_rating_6", "age_rating_12",
                    "age_rating_16", "age_rating_18")

FAMILY_NAMES: dict[str, tuple[str, ...]] = {
    "general": GENERAL_NAMES,
    "readability": READABILITY_NAMES,
    "lexical": LEXICAL_NAMES,
    "grammatical": GRAMMATICAL_NAMES,
    "sentiment": SENTIMENT_NAMES,
    "publishing": PUBLISHING_NAMES,
}

ALL_FEATURE_NAMES: tuple[str, ...] = sum(FAMILY_NAMES.values(), ())

QUANTITATIVE_FAMILIES = ("general", "readability", "lexical", "grammatical", "sentiment")


def schema_hash() -> str:
    """Fingerprint of the feature names in schema order."""
    payload = "\n".join(ALL_FEATURE_NAMES).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class FeatureVector:
    """Named feature values for one document, plus extraction warnings."""

    names: tuple[str, ...]
    values: tuple[float, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.names) != len(self.values):
            raise FeatureError(f"{len(self.names)} names but {len(self.values)} values")
        if len(set(self.names)) != len(self.names):
            raise FeatureError("duplicate feature names")
        for name, value in zip(self.names, self.values):
            if not math.isfinite(value):
                raise FeatureError(f"non-finite value for feature {name!r}")

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))

    @staticmethod
    def concat(parts: list["FeatureVector"]) -> "FeatureVector":
        """Join vectors; each part checked its own values, so only names are checked."""
        names = values = warnings = ()
        for part in parts:
            names, values, warnings = names + part.names, values + part.values, warnings + part.warnings
        if len(set(names)) != len(names):
            raise FeatureError("duplicate feature names")
        joined = object.__new__(FeatureVector)  # skips __post_init__
        joined.__dict__.update(names=names, values=values, warnings=warnings)
        return joined


# Readability coefficient triples.  Signs are part of the value, so a
# coefficient file can reorient an index (e.g. a grade-level variant of
# the first index) without code changes.
_COEF_FIELDS = {
    "fk": ("base", "asl", "asw"),
    "cl": ("base", "letters", "sentences"),
    "ari": ("base", "chars_per_word", "words_per_sentence"),
    "smog": ("base", "scale", "norm"),
    "dc": ("base", "difficult_percent", "words_per_sentence"),
}


@dataclass(frozen=True)
class ReadabilityCoefficients:
    fk: tuple[float, float, float] = (206.835, -1.015, -84.6)
    cl: tuple[float, float, float] = (-15.8, 0.0588, -0.296)
    ari: tuple[float, float, float] = (-21.43, 4.71, 0.5)
    smog: tuple[float, float, float] = (3.1291, 1.043, 30.0)
    dc: tuple[float, float, float] = (0.0, 0.1579, 0.0496)

    @classmethod
    def from_file(cls, path: str | Path) -> "ReadabilityCoefficients":
        """Read coefficient overrides from a JSON file keyed by index
        (fk, cl, ari, smog, dc); missing indices keep their defaults."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: expected a JSON object")
        kwargs = {}
        for index, obj in raw.items():
            fields = _COEF_FIELDS.get(index)
            if fields is None:
                raise ConfigError(f"{path}: unknown index {index!r}")
            if not isinstance(obj, dict) or set(obj) != set(fields):
                raise ConfigError(f"{path}: index {index!r} needs exactly the keys {fields!r}")
            triple = tuple(float(obj[f]) for f in fields)
            if not all(math.isfinite(v) for v in triple):
                raise ConfigError(f"{path}: non-finite coefficient for {index!r}")
            kwargs[index] = triple
        return cls(**kwargs)


DEFAULT_COEFFICIENTS = ReadabilityCoefficients()


def flesch_kincaid(asl: float, asw: float,
                   coefficients: ReadabilityCoefficients = DEFAULT_COEFFICIENTS) -> float:
    base, a, b = coefficients.fk
    return base + a * asl + b * asw


def coleman_liau(letters_per_100: float, sentences_per_100: float,
                 coefficients: ReadabilityCoefficients = DEFAULT_COEFFICIENTS) -> float:
    base, a, b = coefficients.cl
    return base + a * letters_per_100 + b * sentences_per_100


def automated_readability(chars_per_word: float, words_per_sentence: float,
                          coefficients: ReadabilityCoefficients = DEFAULT_COEFFICIENTS) -> float:
    base, a, b = coefficients.ari
    return base + a * chars_per_word + b * words_per_sentence


def smog_index(polysyllables: int, sentences: int,
               coefficients: ReadabilityCoefficients = DEFAULT_COEFFICIENTS) -> float:
    base, scale, norm = coefficients.smog
    return base + scale * math.sqrt(polysyllables * norm / sentences)


def dale_chall(difficult_share: float, words_per_sentence: float,
               coefficients: ReadabilityCoefficients = DEFAULT_COEFFICIENTS) -> float:
    base, a, b = coefficients.dc
    return base + a * (difficult_share * 100.0) + b * words_per_sentence


def _require_tokens(t: AnalyzedText) -> None:
    if t.n_tokens == 0:
        raise FeatureError("text has no tokens")
    if t.n_sentences == 0:
        raise FeatureError("text has no sentences")


def _weighted(pairs) -> tuple[list[int], int]:
    """Each (value, weight) pair's product, exactly, as integers over one
    common scale.  Every float is an integer over a power of two, so
    their largest denominator is that scale."""
    ratios = [(v.as_integer_ratio(), w) for v, w in pairs]
    shift = max((d for (_, d), _ in ratios), default=1).bit_length()
    return [(n << (shift - d.bit_length())) * w for (n, d), w in ratios], 1 << (shift - 1)


def _median(counts: Counter) -> float:
    """Median of integers given as value -> multiplicity, as
    statistics.median computes it."""
    order = sorted(counts)
    ends = list(accumulate(counts[v] for v in order))
    n = ends[-1]
    return (order[bisect_right(ends, (n - 1) // 2)] + order[bisect_right(ends, n // 2)]) / 2


def _tokens_of(t: AnalyzedText, pos: Pos) -> int:
    return sum(count for p, count in zip(t.pos, t.counts) if p is pos)


def _ttr(t: AnalyzedText, pos: Pos) -> float:
    """Distinct lemmas over tokens, among the tokens tagged pos."""
    tokens = _tokens_of(t, pos)
    return len({lemma for lemma, p in zip(t.lemmas, t.pos) if p is pos}) / tokens if tokens else 0.0


def general_features(t: AnalyzedText) -> FeatureVector:
    """Word/sentence length statistics and type-token ratios.

    Type-token ratios run over lemmas; ttr_n, ttr_a and ttr_v restrict to
    tokens tagged Noun, Adj and Verb (proper nouns are not counted as
    nouns here).  nav is (ttr_a + ttr_n) / ttr_v, with 0 when there are
    no verbs.
    """
    _require_tokens(t)
    n = t.n_tokens
    lengths: Counter = Counter()
    for surface, count in zip(t.surfaces, t.counts):
        lengths[len(surface)] += count
    ttr_n, ttr_a, ttr_v = _ttr(t, Pos.NOUN), _ttr(t, Pos.ADJ), _ttr(t, Pos.VERB)
    nav = (ttr_a + ttr_n) / ttr_v if ttr_v > 0 else 0.0
    values = (
        sum(length * count for length, count in lengths.items()) / n,
        _median(lengths),
        sum(t.sentence_symbols) / t.n_sentences,
        _median(Counter(t.sentence_symbols)),
        sum(map(mul, t.syllables, t.counts)) / n,
        sum(count for syl, count in zip(t.syllables, t.counts) if syl > 4) / n,
        len(set(t.lemmas)) / n,
        ttr_n, ttr_a, ttr_v, nav,
    )
    return FeatureVector(GENERAL_NAMES, values)


def readability_features(t: AnalyzedText, familiar: WordList,
                         coefficients: ReadabilityCoefficients = DEFAULT_COEFFICIENTS) -> FeatureVector:
    """The five readability indices on the analyzed text.

    Difficult words for the familiar-list index are tokens whose lemma is
    missing from the familiar list, proper nouns excepted.
    """
    _require_tokens(t)
    words = t.n_tokens
    sentences = t.n_sentences
    syllables = sum(map(mul, t.syllables, t.counts))
    polysyllables = sum(count for syl, count in zip(t.syllables, t.counts) if syl > 3)
    difficult = sum(count for lemma, pos, count in zip(t.lemmas, t.pos, t.counts)
                    if pos is not Pos.PROPN and lemma not in familiar)
    asl = words / sentences
    asw = syllables / words
    values = (
        flesch_kincaid(asl, asw, coefficients),
        coleman_liau(t.letter_count / words * 100.0, sentences / words * 100.0, coefficients),
        automated_readability(t.char_count / words, words / sentences, coefficients),
        smog_index(polysyllables, sentences, coefficients),
        dale_chall(difficult / words, words / sentences, coefficients),
    )
    return FeatureVector(READABILITY_NAMES, values)


# the parts of speech of the s, v, adj, adv and prop buckets
_BUCKET_POS = (Pos.NOUN, Pos.VERB, Pos.ADJ, Pos.ADV, Pos.PROPN)


def lexical_features(t: AnalyzedText, frequency: FrequencyDictionary,
                     top5000: WordList) -> FeatureVector:
    """Frequency-dictionary averages and top-5000 list coverage.

    Tokens absent from the dictionary are left out of every average (they
    do not enter the denominators).  If no token matches at all, every
    dictionary average is 0 and the vector carries a warning flag.
    """
    _require_tokens(t)
    hits = 0
    hit_rows = []  # (ipm, token count) of each top-5000 type with a known ipm
    rows = []  # (ipm, r, d, doc, pos, token count) of each type in the dictionary
    for lemma, pos, count in zip(t.lemmas, t.pos, t.counts):
        # an exact (lemma, pos) record, else the average over the lemma's records
        entry = frequency.lookup(lemma, pos) or frequency.lookup_any(lemma)
        if lemma in top5000:
            hits += count
            ipm = top5000.ipm_of(lemma)
            if ipm is None and entry is not None:
                ipm = entry.ipm
            if ipm is not None:
                hit_rows.append((ipm, count))
        if entry is not None:
            rows.append((entry.ipm, float(entry.r), entry.d, float(entry.doc), pos, count))

    weighted, scale = _weighted(hit_rows)
    hit_tokens = sum(count for _, count in hit_rows)
    values = [hits / t.n_tokens, sum(weighted) / (scale * hit_tokens) if hit_tokens else 0.0]
    *columns, row_pos, row_counts = zip(*rows) if rows else [()] * 6
    # the "words" bucket takes every row, the others the rows of one pos
    masks = [[True] * len(rows)] + [[p is pos for p in row_pos] for pos in _BUCKET_POS]
    tokens = [sum(compress(row_counts, mask)) for mask in masks]
    for column in columns:
        weighted, scale = _weighted(zip(column, row_counts))
        for mask, n in zip(masks, tokens):
            values.append(sum(compress(weighted, mask)) / (scale * n) if n else 0.0)
    warnings = () if rows else ("no_frequency_matches",)
    return FeatureVector(LEXICAL_NAMES, tuple(values), warnings)


def grammatical_features(t: AnalyzedText) -> FeatureVector:
    """Shares of nouns, verbs and adjectives among all tokens."""
    _require_tokens(t)
    values = tuple(_tokens_of(t, pos) / t.n_tokens for pos in (Pos.NOUN, Pos.VERB, Pos.ADJ))
    return FeatureVector(GRAMMATICAL_NAMES, values)


def sentiment_features(t: AnalyzedText, lexicon: SentimentLexicon) -> FeatureVector:
    """Shares of sentiment-bearing tokens by polarity and category,
    relative to all tokens."""
    _require_tokens(t)
    counts: Counter = Counter()
    for lemma, count in zip(t.lemmas, t.counts):
        counts[lexicon.lookup(lemma)] += count
    values = tuple(
        counts[(pol, cat)] / t.n_tokens
        for pol in (Polarity.NEGATIVE, Polarity.POSITIVE)
        for cat in (SentimentCategory.OPINION, SentimentCategory.FEELING, SentimentCategory.FACT)
    )
    return FeatureVector(SENTIMENT_NAMES, values)


_RATING_SLOTS = (AgeRating.R0, AgeRating.R6, AgeRating.R12, AgeRating.R16, AgeRating.R18)


def publishing_features(age_rating: AgeRating) -> FeatureVector:
    """One-hot age rating; an unknown rating encodes as all zeros."""
    values = tuple(1.0 if age_rating is slot else 0.0 for slot in _RATING_SLOTS)
    return FeatureVector(PUBLISHING_NAMES, values)


def extract_all(doc: Document, resources: "Resources") -> FeatureVector:
    """All 56 features for one document, in schema order."""
    if not doc.text.strip():
        raise FeatureError(f"document {doc.id!r}: empty text")
    t = analyze(doc.text, resources.morphology, resources.abbreviations)
    if t.n_tokens == 0:
        raise FeatureError(f"document {doc.id!r}: text has no tokens")
    return FeatureVector.concat([
        general_features(t),
        readability_features(t, resources.familiar, resources.coefficients),
        lexical_features(t, resources.frequency, resources.top5000),
        grammatical_features(t),
        sentiment_features(t, resources.sentiment),
        publishing_features(doc.age_rating),
    ])
