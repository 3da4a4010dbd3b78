"""Feature families, the 56-column schema and the readability formulas."""
import dataclasses
import json
import math
import re
import time
import unicodedata
from dataclasses import dataclass
from fractions import Fraction
from statistics import mean, median

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agelex.corpus import AgeRating, Document, Label
from agelex.errors import ConfigError, FeatureError
from agelex.features import (ALL_FEATURE_NAMES, FAMILY_NAMES,
                             DEFAULT_COEFFICIENTS, FeatureVector,
                             ReadabilityCoefficients, automated_readability,
                             coleman_liau, dale_chall, extract_all,
                             flesch_kincaid, smog_index)
from agelex.lexicons import (D, DIFFICULT, DOC, FREQUENCY_TOKENS, IPM, R, SENTIMENT,
                             SENTIMENT_SLOTS, TOKENS, TOP5000, TOP_IPM, TOP_IPM_TOKENS,
                             FrequencyDictionary, FrequencyRecord, Lexicon, Polarity,
                             SentimentCategory, SentimentLexicon, WordList)
from agelex.resources import BUNDLED_FILES, Resources
from agelex.synthetic import make_corpus
from agelex.text_analysis import (DictionaryMorphology, Pos, analyze,
                                  count_syllables, split_sentences)
from agelex.vectorizer import preprocess

import agelex.features as features_mod
import agelex.text_analysis as text_analysis
from oracles import (NESTED_TOO_DEEPLY, by_family, reference_lexicon_row,
                     reference_quantitative_values, text_features, type_pos, type_surfaces,
                     type_syllables)

# Frozen fingerprint of the 56-name schema; a change here is a breaking
# change for every stored model.
SCHEMA_HASH = "2e752fe0748945c23a0fa469383851823d5403881bba2a99836eb14933576199"


def dict_morph(entries: dict[str, tuple[str, str]]) -> DictionaryMorphology:
    return DictionaryMorphology({s: (l, Pos(p)) for s, (l, p) in entries.items()})


def quantitative(text: str, entries: dict[str, tuple[str, str]],
                 coefficients=DEFAULT_COEFFICIENTS, **lexicons):
    """The features of text read with dict_morph(entries) under the given
    lexicons (the others empty), family -> {name: value}."""
    return by_family(text_features(text, dict_morph(entries), coefficients, **lexicons))


# The token-walking analysis and feature families that the per-type
# ones replaced: the oracle for analyze() and the five families.

@dataclass(frozen=True)
class ReferenceToken:
    surface: str
    lemma: str
    pos: Pos
    syllables: int
    start: int
    end: int


@dataclass
class ReferenceAnalyzedText:
    text: str
    tokens: list
    sentences: list
    sentence_symbols: list
    char_count: int
    letter_count: int
    symbol_count: int

    @property
    def n_tokens(self):
        return len(self.tokens)

    @property
    def n_sentences(self):
        return len(self.sentences)


_REF_RUN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")
_REF_WORD_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*")


def reference_analyze(text, morphology, abbreviations=None):
    tokens = []
    for m in _REF_RUN_RE.finditer(text):
        surface = m.group(0)
        if not (_REF_WORD_RE.fullmatch(surface) and surface.replace("-", "").isalpha()):
            continue
        result = morphology.analyze(surface)
        lemma, pos = result if result is not None else (surface.lower(), Pos.OTHER)
        tokens.append(ReferenceToken(surface, lemma, pos, count_syllables(surface),
                                     m.start(), m.end()))
    sentences, sentence_symbols = [], []
    tok_i = 0
    for start, end in split_sentences(text, abbreviations):
        first = tok_i
        while tok_i < len(tokens) and tokens[tok_i].start < end:
            tok_i += 1
        if tok_i > first:
            sentences.append((first, tok_i))
            sentence_symbols.append(sum(1 for ch in text[start:end] if not ch.isspace()))
    return ReferenceAnalyzedText(
        text, tokens, sentences, sentence_symbols,
        char_count=sum(1 for ch in text if ch.isalnum()),
        letter_count=sum(1 for ch in text if ch.isalpha()),
        symbol_count=sum(1 for ch in text if not ch.isspace()))


def _reference_ttr(lemmas):
    return len(set(lemmas)) / len(lemmas) if lemmas else 0.0


def reference_general_features(t):
    word_lengths = [len(tok.surface) for tok in t.tokens]
    ttr_n, ttr_a, ttr_v = (_reference_ttr([tok.lemma for tok in t.tokens if tok.pos is pos])
                           for pos in (Pos.NOUN, Pos.ADJ, Pos.VERB))
    nav = (ttr_a + ttr_n) / ttr_v if ttr_v > 0 else 0.0
    return (mean(word_lengths), float(median(word_lengths)),
            mean(t.sentence_symbols), float(median(t.sentence_symbols)),
            mean(tok.syllables for tok in t.tokens),
            sum(1 for tok in t.tokens if tok.syllables > 4) / t.n_tokens,
            _reference_ttr([tok.lemma for tok in t.tokens]), ttr_n, ttr_a, ttr_v, nav)


def reference_readability_features(t, familiar, coefficients=DEFAULT_COEFFICIENTS):
    words, sentences = t.n_tokens, t.n_sentences
    syllables = sum(tok.syllables for tok in t.tokens)
    polysyllables = sum(1 for tok in t.tokens if tok.syllables > 3)
    difficult = sum(1 for tok in t.tokens if tok.pos is not Pos.PROPN and tok.lemma not in familiar)
    return (flesch_kincaid(words / sentences, syllables / words, coefficients),
            coleman_liau(t.letter_count / words * 100.0, sentences / words * 100.0, coefficients),
            automated_readability(t.char_count / words, words / sentences, coefficients),
            smog_index(polysyllables, sentences, coefficients),
            dale_chall(difficult / words, words / sentences, coefficients))


_REF_BUCKETS = {Pos.NOUN: "s", Pos.VERB: "v", Pos.ADJ: "adj", Pos.ADV: "adv", Pos.PROPN: "prop"}
_REF_BUCKET_ORDER = ("words", "s", "v", "adj", "adv", "prop")


def reference_dictionary_attrs(t, frequency):
    """Per bucket, the (ipm, r, d, doc) of every matched token in order."""
    out = {b: [] for b in _REF_BUCKET_ORDER}
    for tok in t.tokens:
        rec = frequency.lookup(tok.lemma, tok.pos)
        if rec is not None:
            attrs = (rec.ipm, float(rec.r), rec.d, float(rec.doc))
        else:
            stats = frequency.lookup_any(tok.lemma)
            if stats is None:
                continue
            attrs = (stats.ipm, stats.r, stats.d, stats.doc)
        out["words"].append(attrs)
        if tok.pos in _REF_BUCKETS:
            out[_REF_BUCKETS[tok.pos]].append(attrs)
    return out


def reference_lexical_features(t, frequency, top5000):
    hits = [tok for tok in t.tokens if tok.lemma in top5000]
    freq_values = []
    for tok in hits:
        ipm = top5000.ipm_of(tok.lemma)
        if ipm is None:
            rec = frequency.lookup(tok.lemma, tok.pos)
            stats = frequency.lookup_any(tok.lemma)
            ipm = rec.ipm if rec is not None else (stats.ipm if stats is not None else None)
        if ipm is not None:
            freq_values.append(ipm)
    by_bucket = reference_dictionary_attrs(t, frequency)
    values = [len(hits) / t.n_tokens, mean(freq_values) if freq_values else 0.0]
    for i in range(4):
        for b in _REF_BUCKET_ORDER:
            total = 0.0
            for attrs in by_bucket[b]:
                total += attrs[i]
            values.append(total / len(by_bucket[b]) if by_bucket[b] else 0.0)
    warnings = () if by_bucket["words"] else ("no_frequency_matches",)
    return tuple(values), warnings


def reference_grammatical_features(t):
    return tuple(sum(1 for tok in t.tokens if tok.pos is pos) / t.n_tokens
                 for pos in (Pos.NOUN, Pos.VERB, Pos.ADJ))


def reference_sentiment_features(t, lexicon):
    counts = {(pol, cat): 0 for pol in Polarity for cat in SentimentCategory}
    for tok in t.tokens:
        entry = lexicon.lookup(tok.lemma)
        if entry is not None:
            counts[entry] += 1
    return tuple(counts[(pol, cat)] / t.n_tokens
                 for pol in (Polarity.NEGATIVE, Polarity.POSITIVE)
                 for cat in (SentimentCategory.OPINION, SentimentCategory.FEELING,
                             SentimentCategory.FACT))


_DICTIONARY_SURFACES = sorted(
    line.split("\t")[0]
    for line in BUNDLED_FILES["morphology"].read_text(encoding="utf-8").splitlines()
    if line.strip() and not line.startswith("#"))
_CASES = [str, str.upper, str.capitalize, str.swapcase]
_WORD = st.tuples(st.sampled_from(_DICTIONARY_SURFACES)
                  | st.text(alphabet="абвгдеёжзийклмнопрстуфхцчшщъыьэюяabcxyz",
                            min_size=1, max_size=10),
                  st.sampled_from(_CASES)).map(lambda p: p[1](p[0]))
_DIGITS = st.text(alphabet="0123456789²½", min_size=1, max_size=3)
_RUN = (_WORD | st.lists(_WORD, min_size=2, max_size=3).map("-".join)
        | st.tuples(_WORD, _DIGITS).map("".join) | _DIGITS)
_PUNCTUATION = st.text(alphabet=".!?…,;:-—()«»_", max_size=4)
# every character str.isspace() accepts
WHITESPACE = list(filter(str.isspace, map(chr, range(0x110000))))
# dictionary and unknown words in mixed case, hyphenated words, digits
# and punctuation runs, with every kind of whitespace between them, or
# glued to the next run, terminators included
TEXTS = st.lists(st.tuples(_PUNCTUATION, _RUN, _PUNCTUATION,
                           st.sampled_from([" ", " ", "  ", "\n", "", "", ".", "!»", "…"])
                           | st.sampled_from(WHITESPACE))
                 .map("".join), max_size=25).map("".join)


def distinct_words(first: int, n: int) -> str:
    """Sentences of ten words each, every word spelled from its own
    number, so no two are alike."""
    letters = "бвгдклмнпрст"
    words = []
    for i in range(first, first + n):
        word = "о"
        while i:
            i, digit = divmod(i, len(letters))
            word += letters[digit] + "а"
        words.append(word)
    return " ".join(" ".join(words[i:i + 10]).capitalize() + "." for i in range(0, n, 10))


def bits(values):
    values = list(values)
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


def outcome(text, resources):
    """Every feature value bit for bit and the warnings, or None when
    extraction finds no tokens, then the analysis lemmas and the whole
    preprocess lemma chain (a text holds fewer tokens than characters)."""
    try:
        fv = extract_all(Document(id="d", text=text, label=Label.CHILDREN), resources)
        features = (bits(fv.values), fv.warnings)
    except FeatureError:
        features = None
    t = analyze(text, resources.morphology, resources.abbreviations)
    return (features, [t.lemmas[i] for i in t.tokens],
            preprocess(text, resources.morphology, resources.stopwords, len(text) + 1))


# per morphology and table cap, one Resources whose tables fill over
# the examples of a test
_CAPPED: dict[tuple[bool, int], Resources] = {}


def capped_resources(heuristic: bool, cap: int) -> Resources:
    if (heuristic, cap) not in _CAPPED:
        _CAPPED[heuristic, cap] = Resources.load(heuristic_fallback=heuristic)
    return _CAPPED[heuristic, cap]


class TestAgainstTokenReference:
    """The per-type analysis and families against the token walk.

    Every feature that is a ratio of integer counts, and every mean of
    integers, is bit-identical.  5000_freq was and is the exactly summed
    mean.  The 24 dictionary averages are now exactly summed too, where
    the token walk added them up in text order, so they equal the
    correctly rounded mean of the walk's values and stay within rounding
    error of its sums.
    """

    @pytest.mark.parametrize("heuristic", [False, True])
    @pytest.mark.parametrize("cap", [text_analysis.TABLE_CAP, 0, 3])
    @settings(max_examples=150, deadline=None)
    @given(text=TEXTS)
    @example(text="Кот a.B и кот—пёс.")  # chunks of two words
    @example(text="Кот видел " + "ш" * (text_analysis.CHUNK_LIMIT + 1) + ". Пёс спал.")
    @example(text="Жил абвгдеж-г. Пёс")  # an abbreviation after a hyphen
    @example(text="Жил абв-гдежзи. Пёс")  # the bundled list's window starts at the hyphen
    def test_analysis_matches(self, heuristic, cap, text):
        # the rows kept for one call, past the cap or CHUNK_LIMIT, read
        # like the kept ones
        res = capped_resources(heuristic, cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(text_analysis, "TABLE_CAP", cap)
            t = analyze(text, res.morphology, res.abbreviations)
        assert len(res.morphology._table.ids) <= cap
        ref = reference_analyze(text, res.morphology, res.abbreviations)
        surfaces = type_surfaces(t)
        types = list(zip(surfaces, t.lemmas, type_pos(t), type_syllables(t)))
        assert ([types[i] for i in t.tokens]
                == [(tok.surface, tok.lemma, tok.pos, tok.syllables) for tok in ref.tokens])
        assert len(set(surfaces)) == len(surfaces)
        tokens = t.tokens.tolist()
        assert t.counts.tolist() == [tokens.count(i) for i in range(len(surfaces))]
        assert ((t.n_sentences, t.sentence_symbols.tolist(), t.char_count, t.letter_count, t.symbol_count)
                == (ref.n_sentences, ref.sentence_symbols, ref.char_count, ref.letter_count,
                    ref.symbol_count))

    @pytest.mark.parametrize("heuristic", [False, True])
    @settings(max_examples=150)
    @given(text=TEXTS)
    def test_families_match(self, heuristic, text, resources, heuristic_resources):
        res = heuristic_resources if heuristic else resources
        ref = reference_analyze(text, res.morphology, res.abbreviations)
        doc = Document(id="d", text=text, label=Label.CHILDREN, age_rating=AgeRating.R12)
        if not ref.tokens:
            with pytest.raises(FeatureError):
                extract_all(doc, res)
            return
        fv = extract_all(doc, res)
        families = {family: list(values.values()) for family, values in by_family(fv).items()}
        general = bits(map(float, reference_general_features(ref)))
        readability = bits(reference_readability_features(ref, res.familiar))
        grammatical = bits(reference_grammatical_features(ref))
        sentiment = bits(reference_sentiment_features(ref, res.sentiment))
        assert bits(families["general"]) == general
        assert bits(families["readability"]) == readability
        assert bits(families["grammatical"]) == grammatical
        assert bits(families["sentiment"]) == sentiment
        lexical = families["lexical"]
        ref_values, ref_warnings = reference_lexical_features(ref, res.frequency, res.top5000)
        assert fv.warnings == ref_warnings
        assert bits(lexical[:2]) == bits(ref_values[:2])
        attrs = reference_dictionary_attrs(ref, res.frequency)
        exact = [float(sum(Fraction(a[i]) for a in attrs[b]) / len(attrs[b])) if attrs[b] else 0.0
                 for i in range(4) for b in _REF_BUCKET_ORDER]
        assert bits(lexical[2:]) == bits(exact)
        assert lexical[2:] == pytest.approx(ref_values[2:], rel=1e-12, abs=0.0)
        # the whole vector: the reference families, then the one-hot of 12+
        assert bits(fv.values) == (general + readability + bits(ref_values[:2]) + bits(exact)
                                   + grammatical + sentiment + bits([0.0, 0.0, 1.0, 0.0, 0.0]))

    _LEMMAS = ("кот", "пёс", "дом")
    # one surface per (lemma, pos): the lemma and a letter naming the pos
    _MORPH = DictionaryMorphology({lemma + letter: (lemma, pos)
                                   for lemma in _LEMMAS for letter, pos in zip("абвгде", Pos)})

    @settings(max_examples=100)
    @given(records=st.lists(st.tuples(st.sampled_from(_LEMMAS), st.sampled_from(list(Pos)),
                                      st.floats(0, 1e6), st.integers(0, 100), st.floats(0, 100),
                                      st.integers(0, 10 ** 6)),
                            unique_by=lambda r: r[:2], max_size=10),
           top=st.dictionaries(st.sampled_from(_LEMMAS), st.none() | st.floats(0, 1e6)),
           words=st.lists(st.sampled_from(sorted(_MORPH._entries)), min_size=1, max_size=30))
    def test_dictionary_means_exact_for_any_values(self, records, top, words):
        # the values of a whole dictionary share one scale, however far
        # apart their binary exponents are
        frequency = FrequencyDictionary([FrequencyRecord(*r) for r in records])
        top5000 = WordList(top)
        text = " ".join(words) + "."
        fv = text_features(text, self._MORPH, frequency=frequency, top5000=top5000)
        lexical = by_family(fv)["lexical"].values()
        ref = reference_analyze(text, self._MORPH)
        ref_values, ref_warnings = reference_lexical_features(ref, frequency, top5000)
        attrs = reference_dictionary_attrs(ref, frequency)
        exact = [float(sum(Fraction(a[i]) for a in attrs[b]) / len(attrs[b])) if attrs[b] else 0.0
                 for i in range(4) for b in _REF_BUCKET_ORDER]
        assert fv.warnings == ref_warnings
        assert bits(lexical) == bits(ref_values[:2]) + bits(exact)


def walk_outcome(text, heuristic, cap):
    """extract_all's quantitative values bit for bit and its warnings,
    then the type walk's, read with TABLE_CAP at cap; None when the text
    has no tokens."""
    resources = capped_resources(heuristic, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(text_analysis, "TABLE_CAP", cap)
        try:
            fv = extract_all(Document(id="d", text=text, label=Label.CHILDREN), resources)
        except FeatureError:
            return None
        values, warnings = reference_quantitative_values(
            analyze(text, resources.morphology, resources.abbreviations), resources)
    assert len(resources.lexicon._table.ids) <= cap
    return (bits(fv.values[:51]), fv.warnings), (bits(values), warnings)


class TestIntegerReduction:
    """The product of the per-type rows against the walk over the types
    that adds each type's terms one by one."""

    @pytest.mark.parametrize("heuristic", [False, True])
    @pytest.mark.parametrize("cap", [text_analysis.TABLE_CAP, 0, 3])
    @settings(max_examples=60, deadline=None)
    @given(text=TEXTS)
    def test_extract_all_equals_the_type_walk(self, heuristic, cap, text):
        result = walk_outcome(text, heuristic, cap)
        if result is not None:
            assert result[0] == result[1]

    @pytest.mark.parametrize("cap", [text_analysis.TABLE_CAP, 100])
    def test_a_growing_table_equals_the_type_walk(self, cap):
        # 1,500 distinct words, read twice: the row array grows by
        # doubling, up to the cap, and then serves every kept row
        text = distinct_words(0, 1500) + " " + make_corpus(2, 2, seed=3).documents[0].text
        _CAPPED.pop((True, cap), None)
        for _ in range(2):
            reduced, walked = walk_outcome(text, True, cap)
            assert reduced == walked
        resources = _CAPPED[(True, cap)]
        t = analyze(text, resources.morphology)
        assert len(resources.lexicon._table.ids) == min(cap, len(set(zip(t.lemmas, type_pos(t))))) >= 100

    # binary exponents from -82 to 83, so the scale is 2**82 and the
    # largest scaled value, doc 10**25 times it, needs seven limbs; the
    # ipm of пёс has 53 one bits, so its limbs are as large as limbs get
    _RECORDS = [FrequencyRecord("кот", Pos.NOUN, 2.0 ** 70 + 2.0 ** 18, 7, 0.1, 10 ** 25),
                FrequencyRecord("кот", Pos.VERB, 0.3, 100, 99.5, 3),
                FrequencyRecord("пёс", Pos.NOUN, (2 ** 53 - 1) * 2.0 ** -40, 0, 2.0 ** -30, 0),
                FrequencyRecord("дом", Pos.PROPN, 1e-9, 50, 0.0, 2 ** 60)]
    _TOP5000 = WordList({"кот": 2.0 ** 80, "пёс": None, "дом": 3.5, "ёж": None})
    _SENTIMENT = SentimentLexicon({"пёс": (Polarity.POSITIVE, SentimentCategory.FACT)})
    _FAMILIAR = WordList({"дом": None})

    def test_sums_past_three_limbs_are_exact(self):
        lexicon = Lexicon(FrequencyDictionary(self._RECORDS), self._SENTIMENT, self._TOP5000,
                          self._FAMILIAR)
        assert len(lexicon._scaling[1]) > 3
        types = [("кот", Pos.NOUN), ("кот", Pos.ADJ), ("пёс", Pos.NOUN), ("дом", Pos.PROPN),
                 ("дом", Pos.NOUN), ("ёж", Pos.OTHER), ("кот", Pos.NOUN)]
        # a text of 2**39 - 1 tokens, the most the limbs keep exact: one
        # surface per type, read once, then counted as often as these say
        counts = [2 ** 37, 3, 2 ** 38 - 11, 1, 2 ** 36, 5, 2 ** 36 + 1]
        assert sum(counts) == 2 ** 39 - 1
        surfaces = ["слово" + letter for letter in "абвгдеж"]
        morphology = DictionaryMorphology(dict(zip(surfaces, types)))
        t = analyze(" ".join(surfaces) + ".", morphology)
        count_of = dict(zip(surfaces, counts))
        t = dataclasses.replace(t, counts=np.array([count_of[s] for s in type_surfaces(t)]))
        # one more column, of ones, sums each bucket's tokens again
        sums = lexicon.sums(t, np.ones((len(types), 1), np.int64))
        expected = [[0] * (DOC + 2) for _ in range(len(Pos) + 1)]
        for lemma, p, count in zip(t.lemmas, type_pos(t), t.counts.tolist()):
            familiar, slot, top5000, top_ipm, values = reference_lexicon_row(lexicon, lemma, p)
            row = [0] * (DOC + 2)
            row[TOKENS] = row[DOC + 1] = 1
            row[DIFFICULT] = p is not Pos.PROPN and not familiar
            row[TOP5000] = top5000
            row[TOP_IPM_TOKENS] = top_ipm is not None
            row[FREQUENCY_TOKENS] = values is not None
            if slot is not None:
                row[SENTIMENT[SENTIMENT_SLOTS.index(slot)]] = 1
            for column, value in zip((TOP_IPM, IPM, R, D, DOC), (top_ipm, *(values or [None] * 4))):
                if value is not None:
                    scaled = value * lexicon.scale
                    assert scaled.denominator == 1
                    row[column] = int(scaled)
            for line in (expected[list(Pos).index(p)], expected[-1]):
                line[:] = [s + v * count for s, v in zip(line, row)]
        # then the distinct lemmas of each part of speech, and of all
        for line, p in zip(expected, [*Pos, None]):
            line.append(len({lemma for lemma, q in zip(t.lemmas, type_pos(t)) if p in (q, None)}))
        assert sums == expected
        assert all(type(v) is int for line in sums for v in line)

    @pytest.mark.parametrize("cap", [0, 3, text_analysis.TABLE_CAP])
    def test_distinct_lemma_counts_are_the_sets_of_lemmas(self, cap):
        # кот is a noun, a verb, an adjective and, spelled past
        # CHUNK_LIMIT, an adverb, whose chunk and word rows last one call;
        # under a cap of 0 or 3 more of the rows and keys are a call's
        long = "к" * (text_analysis.CHUNK_LIMIT + 1)
        entries = {"кот": ("кот", "NOUN"), "кота": ("кот", "NOUN"), "котит": ("кот", "VERB"),
                   "котный": ("кот", "ADJ"), long: ("кот", "ADV"), "пёс": ("пёс", "NOUN"),
                   "псу": ("пёс", "NOUN"), "дом": ("дом", "PROPN"), "дома": ("дом", "NOUN")}
        texts = ["Кот котит.", "Кот кота котный пёс.", f"Дом {long} дома кот. Псу ёж!",
                 f"{long} котит. Ёж ежи ёж дом.", "Пёс, кот: котный дом… Котит", "Дома."]
        morphology = dict_morph(entries)
        lexicon = Lexicon(FrequencyDictionary([]), SentimentLexicon({}), WordList({}), WordList({}))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(text_analysis, "TABLE_CAP", cap)
            for text in texts + texts[::-1]:
                t = analyze(text, morphology)
                sums = lexicon.sums(t, np.zeros((len(t.word_ids), 0), np.int64))
                keys = set(zip(t.lemmas, type_pos(t)))
                assert [line[-1] for line in sums] == (
                    [len({lemma for lemma, q in keys if q is p}) for p in Pos]
                    + [len({lemma for lemma, _ in keys})]), text
        assert len(lexicon._table.ids) == min(cap, 9)

    def test_means_past_three_limbs_equal_the_type_walk(self):
        entries = {"кот": ("кот", "NOUN"), "коты": ("кот", "ADJ"), "пёс": ("пёс", "NOUN"),
                   "дом": ("дом", "PROPN"), "ёж": ("ёж", "OTHER")}
        text = "Кот пёс дом коты. Ёж кот кот пёс! Дом дом ёж."
        lexicons = dict(frequency=FrequencyDictionary(self._RECORDS), top5000=self._TOP5000,
                        sentiment=self._SENTIMENT, familiar=self._FAMILIAR)
        fv = text_features(text, dict_morph(entries), **lexicons)
        resources = Resources(morphology=dict_morph(entries), abbreviations=frozenset(),
                              stopwords=frozenset(), coefficients=DEFAULT_COEFFICIENTS, **lexicons)
        values, warnings = reference_quantitative_values(
            analyze(text, resources.morphology), resources)
        assert (bits(fv.values[:51]), fv.warnings) == (bits(values), warnings)


class TestStressMarksAndDecomposedLetters:
    @pytest.mark.parametrize("heuristic", [False, True])
    @settings(max_examples=60)
    @given(text=TEXTS, marks=st.lists(st.tuples(st.integers(0, 200), st.sampled_from("\u0300\u0301")),
                                      max_size=6))
    def test_read_like_the_plain_text(self, heuristic, text, marks, resources, heuristic_resources):
        res = heuristic_resources if heuristic else resources
        marked = text
        for at, mark in marks:
            at %= len(marked) + 1
            marked = marked[:at] + mark + marked[at:]
        plain = outcome(text, res)
        assert outcome(marked, res) == plain
        assert outcome(unicodedata.normalize("NFD", text), res) == plain

    def test_stressed_sentence(self, resources):
        assert (outcome("Ма\u0301ма мы\u0301ла ра\u0301му. Ё\u0301жик спит.", resources)
                == outcome("Мама мыла раму. Ёжик спит.", resources))


class TestSchema:
    def test_width_is_56(self):
        assert len(ALL_FEATURE_NAMES) == 56

    def test_family_widths(self):
        widths = {name: len(cols) for name, cols in FAMILY_NAMES.items()}
        assert widths == {"general": 11, "readability": 5, "lexical": 26,
                          "grammatical": 3, "sentiment": 6, "publishing": 5}

    def test_names_unique(self):
        assert len(set(ALL_FEATURE_NAMES)) == 56

    def test_schema_hash_frozen(self):
        assert features_mod.schema_hash() == SCHEMA_HASH


class TestFeatureVector:
    def test_length_mismatch_rejected(self):
        with pytest.raises(FeatureError):
            FeatureVector((1.0,))

    def test_too_many_values_rejected(self):
        with pytest.raises(FeatureError, match="57 values for 56 features"):
            FeatureVector((1.0,) * 57)

    def test_non_finite_rejected(self):
        with pytest.raises(FeatureError, match="'avg_words_len'"):
            FeatureVector((float("nan"),) + (1.0,) * 55)
        with pytest.raises(FeatureError, match="'age_rating_18'"):
            FeatureVector((1.0,) * 55 + (float("inf"),))


class TestReadabilityFormulas:
    """The five index formulas against hand-computed values."""

    def test_first_index_worked_example(self):
        assert flesch_kincaid(10, 1.5) == pytest.approx(69.785, abs=1e-9)

    def test_letters_based_index_worked_example(self):
        assert coleman_liau(500, 5) == pytest.approx(12.12, abs=1e-9)

    def test_character_index_worked_example(self):
        assert automated_readability(5, 10) == pytest.approx(7.12, abs=1e-9)

    def test_polysyllable_index_worked_example(self):
        assert smog_index(30, 30) == pytest.approx(8.841846274778883, abs=1e-9)

    def test_familiar_words_index_worked_example(self):
        assert dale_chall(0.1, 10) == pytest.approx(2.075, abs=1e-9)


class TestCoefficients:
    def test_defaults(self):
        c = DEFAULT_COEFFICIENTS
        assert c.fk == (206.835, -1.015, -84.6)
        assert c.dc == (0.0, 0.1579, 0.0496)

    def test_partial_override_keeps_other_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"fk": {"base": 1.0, "asl": 2.0, "asw": 3.0}}', encoding="utf-8")
        c = ReadabilityCoefficients.from_file(p)
        assert c.fk == (1.0, 2.0, 3.0)
        assert c.cl == DEFAULT_COEFFICIENTS.cl

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"fk": {"base": 1.0, "asl": 2.0}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="fk"):
            ReadabilityCoefficients.from_file(p)

    def test_unknown_index_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"xx": {"base": 1.0}}', encoding="utf-8")
        with pytest.raises(ConfigError, match="xx"):
            ReadabilityCoefficients.from_file(p)

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            ReadabilityCoefficients.from_file(p)

    def test_file_nested_too_deeply_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(NESTED_TOO_DEEPLY, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"{re.escape(str(p))}: malformed JSON"):
            ReadabilityCoefficients.from_file(p)

    def test_bundled_file_holds_the_defaults(self):
        assert ReadabilityCoefficients.from_file(BUNDLED_FILES["coefficients"]) \
            == ReadabilityCoefficients()

    @pytest.mark.parametrize("value", ['"abc"', "null", "true", "false", "[1]", '{"x": 1}'])
    def test_value_that_is_not_a_number_rejected(self, tmp_path, value):
        p = tmp_path / "c.json"
        p.write_text('{"fk": {"base": 1.0, "asl": %s, "asw": 3.0}}' % value, encoding="utf-8")
        with pytest.raises(ConfigError, match=r"fk\.asl is not a number"):
            ReadabilityCoefficients.from_file(p)

    @pytest.mark.parametrize("value", ["1e999", "-1e999", "1" + "0" * 400])
    def test_value_past_the_float_range_rejected(self, tmp_path, value):
        p = tmp_path / "c.json"
        p.write_text('{"cl": {"base": 1, "letters": 2, "sentences": %s}}' % value, encoding="utf-8")
        with pytest.raises(ConfigError, match="non-finite coefficient for 'cl': sentences"):
            ReadabilityCoefficients.from_file(p)

    def test_negative_smog_norm_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"smog": {"base": 3, "scale": 1, "norm": -30}}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"smog\.norm"):
            ReadabilityCoefficients.from_file(p)

    def test_other_coefficients_keep_their_signs(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"smog": {"base": -3, "scale": -1, "norm": 0}, '
                     '"ari": {"base": -1, "chars_per_word": -2, "words_per_sentence": -3}}',
                     encoding="utf-8")
        c = ReadabilityCoefficients.from_file(p)
        assert (c.smog, c.ari) == ((-3.0, -1.0, 0.0), (-1.0, -2.0, -3.0))
        assert all(type(v) is float for v in c.smog + c.ari)

    @pytest.mark.parametrize("kwargs,message", [
        ({"fk": ("abc", 1, 2)}, r"fk\.base is not a number"),
        ({"dc": (0.0, True, 1.0)}, r"dc\.difficult_percent is not a number"),
        ({"cl": (1.0, 2.0)}, "cl needs three numbers"),
        ({"ari": (1.0, math.inf, 0.5)}, "non-finite coefficient for 'ari': chars_per_word"),
        ({"smog": (3.0, 1.0, -30.0)}, r"smog\.norm"),
    ])
    def test_direct_construction_is_checked_like_a_file(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ReadabilityCoefficients(**kwargs)

    def test_direct_construction_keeps_floats(self):
        c = ReadabilityCoefficients(fk=(1, 2, 3), smog=[3, 1, 0])
        assert (c.fk, c.smog) == ((1.0, 2.0, 3.0), (3.0, 1.0, 0.0))
        assert all(type(v) is float for v in c.fk + c.smog)
        assert c == ReadabilityCoefficients(fk=(1.0, 2.0, 3.0), smog=(3.0, 1.0, 0.0))

    def test_file_errors_name_the_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"smog": {"base": 3, "scale": 1, "norm": -30}}', encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{p}: smog.norm")):
            ReadabilityCoefficients.from_file(p)

    def test_bundled_grade_variant_rises_with_difficulty(self):
        grade = ReadabilityCoefficients.from_file(
            BUNDLED_FILES["coefficients"].with_name("readability_grade.json"))
        easy = flesch_kincaid(5, 1.2, grade)
        hard = flesch_kincaid(25, 2.4, grade)
        assert hard > easy
        # default orientation is reading ease: harder means lower
        assert flesch_kincaid(25, 2.4) < flesch_kincaid(5, 1.2)


class TestGeneralFeatures:
    def test_ttr_definition(self):
        # 10 tokens, 7 unique lemmas
        entries = {c: (c, "OTHER") for c in "абвгдеж"}
        fv = quantitative("а б в г д е ж а б в.", entries)["general"]
        assert fv["ttr"] == pytest.approx(0.7)

    def test_uniform_word_lengths(self):
        fv = quantitative("кот кот кот.", {"кот": ("кот", "NOUN")})["general"]
        assert fv["avg_words_len"] == 3.0
        assert fv["med_words_len"] == 3.0
        assert fv["ttr"] == pytest.approx(1 / 3)

    def test_nav_ratio(self):
        entries = {"кот": ("кот", "NOUN"), "рыжий": ("рыжий", "ADJ"),
                   "спит": ("спать", "VERB")}
        fv = quantitative("кот кот рыжий рыжий спит спит.", entries)["general"]
        assert fv["ttr_n"] == pytest.approx(0.5)
        assert fv["ttr_a"] == pytest.approx(0.5)
        assert fv["ttr_v"] == pytest.approx(0.5)
        assert fv["nav"] == pytest.approx(2.0)

    def test_nav_zero_when_no_verbs(self):
        assert quantitative("кот кот.", {"кот": ("кот", "NOUN")})["general"]["nav"] == 0.0

    def test_proper_nouns_not_counted_in_ttr_n(self):
        entries = {"маша": ("маша", "PROPN"), "кот": ("кот", "NOUN")}
        fv = quantitative("Маша кот.", entries)["general"]
        assert fv["ttr_n"] == pytest.approx(1.0)  # only "кот"

    def test_many_syllables_share(self):
        # пятиэтажный has 5 vowels; кот has 1
        entries = {"пятиэтажный": ("пятиэтажный", "ADJ"), "кот": ("кот", "NOUN")}
        assert quantitative("пятиэтажный кот.", entries)["general"]["many_syllables"] == pytest.approx(0.5)

    def test_sentence_lengths_in_symbols(self):
        fv = quantitative("Кот спит. Да.", {"кот": ("кот", "NOUN"), "спит": ("спать", "VERB")})["general"]
        assert fv["avg_sent_len"] == pytest.approx((8 + 3) / 2)
        assert fv["med_sent_len"] == pytest.approx(5.5)

    def test_empty_text_rejected(self):
        with pytest.raises(FeatureError):
            quantitative("", {})


class TestReadabilityFeatures:
    def test_difficult_words_exclude_familiar_and_proper(self):
        entries = {"маша": ("маша", "PROPN"), "видит": ("видеть", "VERB"),
                   "кота": ("кот", "NOUN")}
        familiar = WordList({"видеть": None})
        fv = quantitative("Маша видит кота.", entries, familiar=familiar)["readability"]
        # one difficult token of three: share 1/3, 3 words in 1 sentence
        assert fv["index_dc"] == pytest.approx(0.1579 * (100.0 / 3.0) + 0.0496 * 3.0)

    def test_all_familiar_leaves_only_length_term(self):
        entries = {"кот": ("кот", "NOUN"), "спит": ("спать", "VERB")}
        familiar = WordList({"кот": None, "спать": None})
        fv = quantitative("кот спит.", entries, familiar=familiar)["readability"]
        assert fv["index_dc"] == pytest.approx(0.0496 * 2.0)

    def test_custom_coefficients_applied(self):
        entries = {"кот": ("кот", "NOUN")}
        coef = ReadabilityCoefficients(fk=(1.0, 0.0, 0.0))
        fv = quantitative("кот.", entries, coef)["readability"]
        assert fv["index_fk"] == pytest.approx(1.0)


def make_freq(rows):
    return FrequencyDictionary([FrequencyRecord(*row) for row in rows])


class TestLexicalFeatures:
    def test_full_top5000_coverage(self):
        entries = {"кот": ("кот", "NOUN"), "спит": ("спать", "VERB")}
        top = WordList({"кот": 100.0, "спать": 200.0})
        fv = quantitative("кот спит.", entries, top5000=top)["lexical"]
        assert fv["5000_proc"] == 1.0
        assert fv["5000_freq"] == pytest.approx(150.0)

    def test_attribute_averages_per_bucket(self):
        entries = {"кот": ("кот", "NOUN"), "пёс": ("пёс", "NOUN")}
        freq = make_freq([("кот", Pos.NOUN, 100.0, 10, 20.0, 5),
                          ("пёс", Pos.NOUN, 300.0, 30, 40.0, 15)])
        fv = quantitative("кот пёс.", entries, frequency=freq)["lexical"]
        assert fv["words_fr"] == pytest.approx(200.0)
        assert fv["s_fr"] == pytest.approx(200.0)
        assert fv["words_r"] == pytest.approx(20.0)
        assert fv["words_d"] == pytest.approx(30.0)
        assert fv["words_doc"] == pytest.approx(10.0)
        assert fv["v_fr"] == 0.0  # no verbs matched

    def test_unmatched_token_skips_denominator(self):
        entries = {"кот": ("кот", "NOUN"), "ёж": ("ёж", "NOUN")}
        freq = make_freq([("кот", Pos.NOUN, 100.0, 10, 20.0, 5)])
        fv = quantitative("кот ёж.", entries, frequency=freq)["lexical"]
        assert fv["words_fr"] == pytest.approx(100.0)

    def test_no_matches_warns_and_zeroes(self):
        fv = text_features("ёж.", dict_morph({"ёж": ("ёж", "NOUN")}))
        assert fv.warnings == ("no_frequency_matches",)
        assert by_family(fv)["lexical"]["words_fr"] == 0.0

    def test_top5000_without_ipm_falls_back_to_dictionary(self):
        entries = {"кот": ("кот", "NOUN")}
        freq = make_freq([("кот", Pos.NOUN, 123.0, 10, 20.0, 5)])
        top = WordList({"кот": None})
        assert quantitative("кот.", entries, frequency=freq, top5000=top)["lexical"]["5000_freq"] == pytest.approx(123.0)

    def test_pos_specific_lookup_beats_average(self):
        # "печь" noun and verb entries differ; a noun token must take the
        # noun row, not the cross-pos average
        entries = {"печь": ("печь", "NOUN")}
        freq = make_freq([("печь", Pos.NOUN, 100.0, 10, 20.0, 5),
                          ("печь", Pos.VERB, 300.0, 30, 40.0, 15)])
        assert quantitative("печь.", entries, frequency=freq)["lexical"]["words_fr"] == pytest.approx(100.0)


class TestGrammaticalFeatures:
    def test_mixed_pos_shares(self):
        entries = {"кот": ("кот", "NOUN"), "пёс": ("пёс", "NOUN"),
                   "спит": ("спать", "VERB"), "и": ("и", "OTHER")}
        fv = quantitative("кот пёс спит и.", entries)["grammatical"]
        assert (fv["count_n"], fv["count_v"], fv["count_a"]) == (0.5, 0.25, 0.0)

    def test_all_adjectives(self):
        fv = quantitative("рыжий рыжий.", {"рыжий": ("рыжий", "ADJ")})["grammatical"]
        assert (fv["count_n"], fv["count_v"], fv["count_a"]) == (0.0, 0.0, 1.0)

    def test_bundled_dictionary_example(self, resources):
        fv = by_family(text_features("кот спит", resources.morphology))["grammatical"]
        assert (fv["count_n"], fv["count_v"], fv["count_a"]) == (0.5, 0.5, 0.0)

    def test_proper_nouns_are_not_nouns(self):
        assert quantitative("Маша.", {"маша": ("маша", "PROPN")})["grammatical"]["count_n"] == 0.0


class TestSentimentFeatures:
    def _sentiment(self):
        return SentimentLexicon({
            "ужасный": (Polarity.NEGATIVE, SentimentCategory.OPINION),
            "радость": (Polarity.POSITIVE, SentimentCategory.FEELING),
        })

    def test_share_of_matching_tokens(self):
        entries = {c: (c, "OTHER") for c in "абвгдежз"}
        entries["ужасный"] = ("ужасный", "ADJ")
        fv = quantitative("ужасный ужасный а б в г д е ж з.", entries, sentiment=self._sentiment())["sentiment"]
        assert fv["neg_opinion"] == pytest.approx(0.2)
        assert fv["pos_feeling"] == 0.0

    def test_no_hits_all_zero(self):
        fv = quantitative("кот.", {"кот": ("кот", "NOUN")}, sentiment=self._sentiment())["sentiment"]
        assert all(v == 0.0 for v in fv.values())

    def test_lookup_is_by_lemma(self):
        entries = {"ужасного": ("ужасный", "ADJ")}
        assert quantitative("ужасного.", entries, sentiment=self._sentiment())["sentiment"]["neg_opinion"] == 1.0


class TestPublishingFeatures:
    def _one_hot(self, rating, resources):
        doc = Document(id="d", text="Кот спит.", label=Label.CHILDREN, age_rating=rating)
        return tuple(by_family(extract_all(doc, resources))["publishing"].values())

    def test_middle_rating(self, resources):
        assert self._one_hot(AgeRating.R12, resources) == (0, 0, 1, 0, 0)

    def test_unknown_is_all_zero(self, resources):
        assert self._one_hot(AgeRating.UNKNOWN, resources) == (0, 0, 0, 0, 0)

    def test_last_rating(self, resources):
        assert self._one_hot(AgeRating.R18, resources) == (0, 0, 0, 0, 1)

    @pytest.mark.parametrize("rating", [r for r in AgeRating if r is not AgeRating.UNKNOWN])
    def test_one_hot_sums_to_one(self, rating, resources):
        assert sum(self._one_hot(rating, resources)) == 1.0


class TestExtractAll:
    def _doc(self, text="Кот спит. Пёс бежит и играет во дворе.", **kw):
        return Document(id="d", text=text, label=Label.CHILDREN, **kw)

    def test_width_and_order(self, resources):
        fv = extract_all(self._doc(), resources)
        assert len(fv.values) == len(ALL_FEATURE_NAMES) == 56

    def test_deterministic(self, resources):
        a = extract_all(self._doc(), resources)
        b = extract_all(self._doc(), resources)
        assert a == b

    def test_empty_preview_rejected(self, resources):
        with pytest.raises(FeatureError, match="empty text"):
            extract_all(self._doc(text="   "), resources)

    @pytest.mark.parametrize("index, fault", [(index, "inf") for index in features_mod._COEF_FIELDS]
                             + [("fk", "nan")])
    def test_faulty_family_vector_rejected(self, tmp_path, index, fault):
        # each coefficient is finite, but the index overflows to inf, or
        # with terms of both signs to inf - inf = nan, on a text with a
        # word of five syllables
        triple = (1e308, 1e308, 1e308 if fault == "inf" else -1e308)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({index: dict(zip(features_mod._COEF_FIELDS[index], triple))}),
                        encoding="utf-8")
        resources = Resources.load({"coefficients": path})
        with pytest.raises(FeatureError, match=f"non-finite value for feature 'index_{index}'"):
            extract_all(self._doc("Пятиэтажный дом стоит."), resources)

    def test_one_lexicon_read_and_one_vector_per_document(self, resources, monkeypatch):
        reads, built = [], []
        sums, post_init = Lexicon.sums, FeatureVector.__post_init__
        monkeypatch.setattr(Lexicon, "sums", lambda self, *a: reads.append(a) or sums(self, *a))
        monkeypatch.setattr(FeatureVector, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        fv = extract_all(self._doc(), resources)
        assert len(reads) == 1
        assert built == [fv]

    def test_age_rating_reflected(self, resources):
        publishing = by_family(extract_all(self._doc(age_rating=AgeRating.R6), resources))["publishing"]
        assert publishing["age_rating_6"] == 1.0
        assert sum(publishing[n] for n in FAMILY_NAMES["publishing"]) == 1.0

    def test_every_value_is_a_float(self, resources):
        # a mean of integers once came back as an int when it was whole,
        # as avg_sent_len does for a0000 here
        for doc in make_corpus(30, 30, seed=5, resources=resources):
            assert all(type(v) is float for v in extract_all(doc, resources).values), doc.id

    @pytest.mark.parametrize("shape", ["repetitive", "distinct", "punctuation"])
    def test_cost_grows_linearly(self, resources, shape):
        # eight times the input takes about eight times as long, whether
        # its words repeat, are all distinct or sit in one long line
        # between runs of punctuation
        if shape == "repetitive":
            preview = " ".join(doc.text for doc in make_corpus(3, 3, seed=1, resources=resources))
            texts = [preview, preview * 8]
        elif shape == "distinct":
            texts = [distinct_words(0, 1500), distinct_words(0, 8 * 1500)]
        else:
            line = "Кот,,, пёс!!! ёж... --- ?!?! мама -- (кот) «дом»; 12 "
            texts = [line * 150, line * 8 * 150]

        def best_seconds(text, repeats):
            doc = Document(id="d", text=text, label=Label.CHILDREN)
            times = []
            for _ in range(repeats):
                started = time.perf_counter()
                extract_all(doc, resources)
                times.append(time.perf_counter() - started)
            return min(times)

        once = best_seconds(texts[0], 5)
        assert best_seconds(texts[1], 3) / once < 24

    def test_fraction_features_bounded(self, resources):
        vector = extract_all(self._doc(), resources)
        fv = dict(zip(ALL_FEATURE_NAMES, vector.values))
        for name in ("many_syllables", "ttr", "ttr_n", "ttr_a", "ttr_v",
                     "5000_proc", "count_n", "count_v", "count_a",
                     "neg_opinion", "pos_feeling"):
            assert 0.0 <= fv[name] <= 1.0
        assert 0.0 < fv["ttr"] <= 1.0

    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_self_concatenation_fixes_readability(self, seed):
        # ratios of doubled counts are unchanged, so all five indices must
        # agree between a text and the text repeated twice
        import random as _random
        rng = _random.Random(seed)
        words = ["кот", "молоко", "пятиэтажный", "дом", "и", "бежать"]
        sents = []
        for _ in range(rng.randint(1, 5)):
            sents.append(" ".join(rng.choice(words)
                                  for _ in range(rng.randint(2, 8))).capitalize() + ".")
        text = " ".join(sents)
        entries = {w: (w, "NOUN") for w in words}
        familiar = WordList({"кот": None, "и": None})
        single = quantitative(text, entries, familiar=familiar)["readability"]
        double = quantitative(text + " " + text, entries, familiar=familiar)["readability"]
        for a, b in zip(single.values(), double.values()):
            assert a == pytest.approx(b, abs=1e-9)
