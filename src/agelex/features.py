"""The six feature families and the fixed 56-column schema.

Families, in schema order: general text statistics (11), readability
indices (5), frequency-dictionary features (26), part-of-speech shares
(3), sentiment shares (6) and the age-rating one-hot (5).  The full
column order is frozen in ALL_FEATURE_NAMES and fingerprinted by
schema_hash(); trained models refuse inputs with a different schema.

Features are always computed on the full preview text, never on the
truncated fragments used by the bag-of-words vectorizer.

extract_all gives a document's 56 values in ALL_FEATURE_NAMES order and
its warnings.  Its five quantitative families are array reductions over
the types of text_analysis.analyze, read by their row ids alone: every
count is a sum of per-type token counts, and every dictionary mean an
exact integer sum divided once.  Lexicon.sums (Resources.lexicon)
gathers the types' lexicon rows by their word row ids and multiplies
the (part of speech + total) x type matrix of token counts by them and
by the types' syllable and length columns in one int64 product; one
sort of the types' (lemma id, pos) keys gives the distinct lemmas for
the type-token ratios.  Only those ratios and the two medians are not
sums.  features.md gives the rules.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .corpus import AgeRating, Document
from .errors import ConfigError, FeatureError, decode_errors_as
from .lexicons import (D, DIFFICULT, DOC, FREQUENCY_TOKENS, IPM, R, SENTIMENT, TOKENS, TOP5000,
                       TOP_IPM, TOP_IPM_TOKENS, Lexicon)
from .text_analysis import LENGTH, POS_ORDER, SYLLABLES, AnalyzedText, Pos, analyze

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
    """One document's values in ALL_FEATURE_NAMES order, plus warnings."""

    values: tuple[float, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.values) != len(ALL_FEATURE_NAMES):
            raise FeatureError(f"{len(self.values)} values for {len(ALL_FEATURE_NAMES)} features")
        if not all(map(math.isfinite, self.values)):
            name = next(name for name, value in zip(ALL_FEATURE_NAMES, self.values)
                        if not math.isfinite(value))
            raise FeatureError(f"non-finite value for feature {name!r}")


# Readability coefficient triples.  Signs are part of the value, so a
# coefficient file can reorient an index (e.g. a grade-level variant of
# the first index) without code changes; only smog.norm, which is under
# a square root, must not be negative.
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

    def __post_init__(self):
        """Each index takes three finite numbers, kept as floats, and
        smog.norm must not be negative; ConfigError otherwise."""
        for index, fields in _COEF_FIELDS.items():
            triple = getattr(self, index)
            if not isinstance(triple, (tuple, list)) or len(triple) != len(fields):
                raise ConfigError(f"{index} needs three numbers {fields!r}, got {triple!r}")
            for f, value in zip(fields, triple):
                # a bool is an int to isinstance, not a number here
                if type(value) not in (int, float):
                    raise ConfigError(f"{index}.{f} is not a number: {value!r}")
                if not abs(value) <= sys.float_info.max:
                    raise ConfigError(f"non-finite coefficient for {index!r}: {f}")
            object.__setattr__(self, index, tuple(map(float, triple)))
        if self.smog[2] < 0:
            raise ConfigError("smog.norm is under a square root and must be >= 0")

    @classmethod
    def from_file(cls, path: str | Path) -> "ReadabilityCoefficients":
        """Read coefficient overrides from a JSON file keyed by index
        (fk, cl, ari, smog, dc); missing indices keep their defaults."""
        try:
            with decode_errors_as(ConfigError, path):
                raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, RecursionError) as exc:  # the second: nested too deeply
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
            kwargs[index] = tuple(obj[f] for f in fields)
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


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


def _median(values, weights=None) -> float:
    """Median of non-negative integers, values[i] taken weights[i] times
    or else once, as statistics.median computes it."""
    ends = np.bincount(values, weights).cumsum()
    low, high = ends.searchsorted(((ends[-1] - 1) // 2, ends[-1] // 2), "right").tolist()
    return (low + high) / 2


_NOUN, _VERB, _ADJ, _ADV, _PROPN = map(POS_ORDER.index, (Pos.NOUN, Pos.VERB, Pos.ADJ, Pos.ADV, Pos.PROPN))


def _quantitative_values(t: AnalyzedText, lexicon: Lexicon,
                         coefficients: ReadabilityCoefficients) -> tuple[list[float], tuple[str, ...]]:
    """The 51 quantitative values in schema order, by the rules of
    features.md, and the warnings; t must hold a token, so a sentence."""
    n, sentences = t.n_tokens, t.n_sentences
    syllables, lengths = t.types[:, SYLLABLES], t.types[:, LENGTH]
    # per part of speech, then over all: the Lexicon.sums columns, then
    # the syllables, polysyllables, words of many syllables and word
    # lengths, then the distinct lemmas
    *by_pos, total = lexicon.sums(t, np.array([syllables, syllables > 3, syllables > 4, lengths]).T)
    syllable_sum, polysyllables, many_syllables, length_sum, lemmas = total[DOC + 1:]
    ttr_n, ttr_a, ttr_v = [line[-1] / line[TOKENS] if line[TOKENS] else 0.0
                           for line in (by_pos[_NOUN], by_pos[_ADJ], by_pos[_VERB])]
    asl, asw = n / sentences, syllable_sum / n
    values = [
        length_sum / n,
        _median(lengths, t.counts),
        int(t.sentence_symbols.sum()) / sentences,
        _median(t.sentence_symbols),
        asw,
        many_syllables / n,
        lemmas / n,
        ttr_n, ttr_a, ttr_v,
        (ttr_a + ttr_n) / ttr_v if ttr_v > 0 else 0.0,
        flesch_kincaid(asl, asw, coefficients),
        coleman_liau(t.letter_count / n * 100.0, sentences / n * 100.0, coefficients),
        automated_readability(t.char_count / n, asl, coefficients),
        smog_index(polysyllables, sentences, coefficients),
        dale_chall(total[DIFFICULT] / n, asl, coefficients),
    ]
    # every dictionary sum is exact, over lexicon.scale, and is divided once;
    # the words bucket takes every part of speech, then come s, v, adj, adv
    # and prop
    scale = lexicon.scale
    hit_tokens = total[TOP_IPM_TOKENS]
    values += [total[TOP5000] / n, total[TOP_IPM] / (scale * hit_tokens) if hit_tokens else 0.0]
    buckets = [(bucket, scale * bucket[FREQUENCY_TOKENS])
               for bucket in (total, *(by_pos[p] for p in (_NOUN, _VERB, _ADJ, _ADV, _PROPN)))]
    values += [bucket[column] / divisor if divisor else 0.0
               for column in (IPM, R, D, DOC) for bucket, divisor in buckets]
    values += [by_pos[p][TOKENS] / n for p in (_NOUN, _VERB, _ADJ)]
    values += [total[column] / n for column in SENTIMENT]
    warnings = () if total[FREQUENCY_TOKENS] else ("no_frequency_matches",)
    return values, warnings


_RATING_SLOTS = (AgeRating.R0, AgeRating.R6, AgeRating.R12, AgeRating.R16, AgeRating.R18)
# each rating's one-hot, which is all zeros for an unknown rating
_RATING_VALUES = {r: tuple(float(r is slot) for slot in _RATING_SLOTS) for r in _RATING_SLOTS}


def extract_all(doc: Document, resources: "Resources") -> FeatureVector:
    """All 56 features for one document, in schema order: the 51
    quantitative values, then the age-rating one-hot, which is all zeros
    for an unknown rating."""
    if not doc.text.strip():
        raise FeatureError(f"document {doc.id!r}: empty text")
    t = analyze(doc.text, resources.morphology, resources.abbreviations)
    if t.n_tokens == 0:
        raise FeatureError(f"document {doc.id!r}: text has no tokens")
    values, warnings = _quantitative_values(t, resources.lexicon, resources.coefficients)
    return FeatureVector((*values, *_RATING_VALUES.get(doc.age_rating, (0.0,) * 5)), warnings)
