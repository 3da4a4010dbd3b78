"""Bundled and user-supplied lexical resources, gathered in one place.

Every resource has a small bundled default under agelex/data so the
package works out of the box; any of them can be swapped for a larger
file via the command line or a config file.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .features import ReadabilityCoefficients
from .lexicons import (FrequencyDictionary, Lexicon, SentimentLexicon, WordList,
                       load_frequency_dict, load_sentiment_lexicon, load_word_list)
from .text_analysis import (DictionaryMorphology, HeuristicMorphology,
                            MorphologyProvider, load_abbreviations)

_DATA_DIR = Path(__file__).resolve().parent / "data"

BUNDLED_FILES = {
    "morphology": _DATA_DIR / "morphology.tsv",
    "frequency": _DATA_DIR / "frequency.tsv",
    "sentiment": _DATA_DIR / "sentiment.csv",
    "top5000": _DATA_DIR / "top5000.txt",
    "familiar": _DATA_DIR / "familiar.txt",
    "stopwords": _DATA_DIR / "stopwords.txt",
    "abbreviations": _DATA_DIR / "abbreviations.txt",
    "coefficients": _DATA_DIR / "readability_default.json",
}


@dataclass(frozen=True)
class Resources:
    """Everything feature extraction and vectorization need to run.

    Frozen, because what was resolved from a resource is kept: the
    morphology provider keeps the row of each chunk it has read (a word
    is the chunk of its one run), with a word's part of speech and
    syllables, and lexicon, built from the four word lexicons, the row
    of each (lemma, pos) and which of them each word row reads.  So each
    Resources has its own lexicon, while several may share a provider.
    The two tables fill as documents are read, as text_analysis.RowTable
    says.
    """

    morphology: MorphologyProvider
    abbreviations: frozenset[str]
    frequency: FrequencyDictionary
    sentiment: SentimentLexicon
    top5000: WordList
    familiar: WordList
    stopwords: frozenset[str]
    coefficients: ReadabilityCoefficients
    lexicon: Lexicon = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lexicon", Lexicon(self.frequency, self.sentiment,
                                                    self.top5000, self.familiar))

    @classmethod
    def load(cls, paths: dict[str, str | Path] | None = None,
             heuristic_fallback: bool = False) -> "Resources":
        """Load resources from the given paths, falling back to the
        bundled defaults for any that are missing.

        With heuristic_fallback, forms missing from the morphology
        dictionary get a suffix-based part-of-speech guess instead of
        the plain pos=Other fallback.
        """
        resolved = dict(BUNDLED_FILES)
        for key, value in (paths or {}).items():
            if key not in resolved:
                raise ConfigError(f"unknown resource {key!r}; known: {list(BUNDLED_FILES)}")
            if value is not None:
                resolved[key] = Path(value)
        return cls(
            morphology=DictionaryMorphology.load(
                resolved["morphology"], HeuristicMorphology() if heuristic_fallback else None),
            abbreviations=load_abbreviations(resolved["abbreviations"]),
            frequency=load_frequency_dict(resolved["frequency"]),
            sentiment=load_sentiment_lexicon(resolved["sentiment"]),
            top5000=load_word_list(resolved["top5000"]),
            familiar=load_word_list(resolved["familiar"]),
            stopwords=frozenset(load_word_list(resolved["stopwords"]).lemmas),
            coefficients=ReadabilityCoefficients.from_file(resolved["coefficients"]),
        )

    @classmethod
    def bundled(cls) -> "Resources":
        return cls.load()
