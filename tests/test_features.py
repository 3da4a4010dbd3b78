"""Feature families, the 56-column schema and the readability formulas."""
import math
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from statistics import mean, median

import pytest
from hypothesis import given, settings, strategies as st

from agelex.corpus import AgeRating, Document, Label
from agelex.errors import ConfigError, FeatureError
from agelex.features import (ALL_FEATURE_NAMES, FAMILY_NAMES,
                             DEFAULT_COEFFICIENTS, FeatureVector,
                             ReadabilityCoefficients, automated_readability,
                             coleman_liau, dale_chall, extract_all,
                             flesch_kincaid, general_features,
                             grammatical_features, lexical_features,
                             publishing_features, readability_features,
                             sentiment_features, smog_index)
from agelex.lexicons import (FrequencyDictionary, FrequencyRecord, Polarity,
                             SentimentCategory, SentimentLexicon, WordList)
from agelex.resources import BUNDLED_FILES, GRADE_COEFFICIENTS_FILE
from agelex.synthetic import make_corpus
from agelex.text_analysis import (DictionaryMorphology, Pos, analyze,
                                  count_syllables, split_sentences)

import agelex.features as features_mod

# Frozen fingerprint of the 56-name schema; a change here is a breaking
# change for every stored model.
SCHEMA_HASH = "2e752fe0748945c23a0fa469383851823d5403881bba2a99836eb14933576199"


def dict_morph(entries: dict[str, tuple[str, str]]) -> DictionaryMorphology:
    return DictionaryMorphology({s: (l, Pos(p)) for s, (l, p) in entries.items()})


def analyzed(text: str, entries: dict[str, tuple[str, str]]):
    return analyze(text, dict_morph(entries))


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
# dictionary and unknown words in mixed case, hyphenated words, digits
# and punctuation runs, with assorted whitespace between them
TEXTS = st.lists(st.tuples(_PUNCTUATION, _RUN, _PUNCTUATION,
                           st.sampled_from([" ", " ", "  ", "\n", "\u00a0", "\t", "\x1c", ""]))
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
    @settings(max_examples=150)
    @given(text=TEXTS)
    def test_analysis_matches(self, heuristic, text, resources, heuristic_resources):
        res = heuristic_resources if heuristic else resources
        t = analyze(text, res.morphology, res.abbreviations)
        ref = reference_analyze(text, res.morphology, res.abbreviations)
        assert ([(t.surfaces[i], t.lemmas[i], t.pos[i], t.syllables[i]) for i in t.tokens]
                == [(tok.surface, tok.lemma, tok.pos, tok.syllables) for tok in ref.tokens])
        assert len(set(t.surfaces)) == len(t.surfaces)
        assert t.counts == [t.tokens.count(i) for i in range(len(t.surfaces))]
        assert ((t.sentences, t.sentence_symbols, t.char_count, t.letter_count, t.symbol_count)
                == (ref.sentences, ref.sentence_symbols, ref.char_count, ref.letter_count,
                    ref.symbol_count))

    @pytest.mark.parametrize("heuristic", [False, True])
    @settings(max_examples=150)
    @given(text=TEXTS)
    def test_families_match(self, heuristic, text, resources, heuristic_resources):
        res = heuristic_resources if heuristic else resources
        t = analyze(text, res.morphology, res.abbreviations)
        ref = reference_analyze(text, res.morphology, res.abbreviations)
        if not ref.tokens:
            with pytest.raises(FeatureError):
                general_features(t)
            return
        assert bits(general_features(t).values) == bits(map(float, reference_general_features(ref)))
        assert (bits(readability_features(t, res.familiar).values)
                == bits(reference_readability_features(ref, res.familiar)))
        assert bits(grammatical_features(t).values) == bits(reference_grammatical_features(ref))
        assert (bits(sentiment_features(t, res.sentiment).values)
                == bits(reference_sentiment_features(ref, res.sentiment)))
        lexical = lexical_features(t, res.frequency, res.top5000)
        ref_values, ref_warnings = reference_lexical_features(ref, res.frequency, res.top5000)
        assert lexical.warnings == ref_warnings
        assert bits(lexical.values[:2]) == bits(ref_values[:2])
        attrs = reference_dictionary_attrs(ref, res.frequency)
        exact = [float(sum(Fraction(a[i]) for a in attrs[b]) / len(attrs[b])) if attrs[b] else 0.0
                 for i in range(4) for b in _REF_BUCKET_ORDER]
        assert bits(lexical.values[2:]) == bits(exact)
        assert lexical.values[2:] == pytest.approx(ref_values[2:], rel=1e-12, abs=0.0)


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
            FeatureVector(("a", "b"), (1.0,))

    def test_duplicate_names_rejected(self):
        with pytest.raises(FeatureError):
            FeatureVector(("a", "a"), (1.0, 2.0))

    def test_non_finite_rejected(self):
        with pytest.raises(FeatureError, match="a"):
            FeatureVector(("a",), (float("nan"),))
        with pytest.raises(FeatureError):
            FeatureVector(("a",), (float("inf"),))

    def test_concat_and_as_dict(self):
        fv = FeatureVector.concat([FeatureVector(("a",), (1.0,)),
                                   FeatureVector(("b",), (2.0,), ("w",))])
        assert fv.as_dict() == {"a": 1.0, "b": 2.0}
        assert fv.warnings == ("w",)


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

    def test_bundled_grade_variant_rises_with_difficulty(self):
        grade = ReadabilityCoefficients.from_file(GRADE_COEFFICIENTS_FILE)
        easy = flesch_kincaid(5, 1.2, grade)
        hard = flesch_kincaid(25, 2.4, grade)
        assert hard > easy
        # default orientation is reading ease: harder means lower
        assert flesch_kincaid(25, 2.4) < flesch_kincaid(5, 1.2)


class TestGeneralFeatures:
    def test_ttr_definition(self):
        # 10 tokens, 7 unique lemmas
        entries = {c: (c, "OTHER") for c in "абвгдеж"}
        t = analyzed("а б в г д е ж а б в.", entries)
        fv = general_features(t).as_dict()
        assert fv["ttr"] == pytest.approx(0.7)

    def test_uniform_word_lengths(self):
        t = analyzed("кот кот кот.", {"кот": ("кот", "NOUN")})
        fv = general_features(t).as_dict()
        assert fv["avg_words_len"] == 3.0
        assert fv["med_words_len"] == 3.0
        assert fv["ttr"] == pytest.approx(1 / 3)

    def test_nav_ratio(self):
        entries = {"кот": ("кот", "NOUN"), "рыжий": ("рыжий", "ADJ"),
                   "спит": ("спать", "VERB")}
        t = analyzed("кот кот рыжий рыжий спит спит.", entries)
        fv = general_features(t).as_dict()
        assert fv["ttr_n"] == pytest.approx(0.5)
        assert fv["ttr_a"] == pytest.approx(0.5)
        assert fv["ttr_v"] == pytest.approx(0.5)
        assert fv["nav"] == pytest.approx(2.0)

    def test_nav_zero_when_no_verbs(self):
        t = analyzed("кот кот.", {"кот": ("кот", "NOUN")})
        assert general_features(t).as_dict()["nav"] == 0.0

    def test_proper_nouns_not_counted_in_ttr_n(self):
        entries = {"маша": ("маша", "PROPN"), "кот": ("кот", "NOUN")}
        t = analyzed("Маша кот.", entries)
        fv = general_features(t).as_dict()
        assert fv["ttr_n"] == pytest.approx(1.0)  # only "кот"

    def test_many_syllables_share(self):
        # пятиэтажный has 5 vowels; кот has 1
        entries = {"пятиэтажный": ("пятиэтажный", "ADJ"), "кот": ("кот", "NOUN")}
        t = analyzed("пятиэтажный кот.", entries)
        assert general_features(t).as_dict()["many_syllables"] == pytest.approx(0.5)

    def test_sentence_lengths_in_symbols(self):
        t = analyzed("Кот спит. Да.", {"кот": ("кот", "NOUN"), "спит": ("спать", "VERB")})
        fv = general_features(t).as_dict()
        assert fv["avg_sent_len"] == pytest.approx((8 + 3) / 2)
        assert fv["med_sent_len"] == pytest.approx(5.5)

    def test_empty_text_rejected(self):
        t = analyzed("", {})
        with pytest.raises(FeatureError):
            general_features(t)


class TestReadabilityFeatures:
    def test_difficult_words_exclude_familiar_and_proper(self):
        entries = {"маша": ("маша", "PROPN"), "видит": ("видеть", "VERB"),
                   "кота": ("кот", "NOUN")}
        familiar = WordList("familiar", {"видеть": None})
        t = analyzed("Маша видит кота.", entries)
        fv = readability_features(t, familiar).as_dict()
        # one difficult token of three: share 1/3, 3 words in 1 sentence
        assert fv["index_dc"] == pytest.approx(0.1579 * (100.0 / 3.0) + 0.0496 * 3.0)

    def test_all_familiar_leaves_only_length_term(self):
        entries = {"кот": ("кот", "NOUN"), "спит": ("спать", "VERB")}
        familiar = WordList("familiar", {"кот": None, "спать": None})
        t = analyzed("кот спит.", entries)
        assert readability_features(t, familiar).as_dict()["index_dc"] == pytest.approx(0.0496 * 2.0)

    def test_custom_coefficients_applied(self):
        entries = {"кот": ("кот", "NOUN")}
        t = analyzed("кот.", entries)
        coef = ReadabilityCoefficients(fk=(1.0, 0.0, 0.0))
        fv = readability_features(t, WordList("f", {}), coef).as_dict()
        assert fv["index_fk"] == pytest.approx(1.0)


def make_freq(rows):
    return FrequencyDictionary([FrequencyRecord(*row) for row in rows])


class TestLexicalFeatures:
    def test_full_top5000_coverage(self):
        entries = {"кот": ("кот", "NOUN"), "спит": ("спать", "VERB")}
        top = WordList("top5000", {"кот": 100.0, "спать": 200.0})
        t = analyzed("кот спит.", entries)
        fv = lexical_features(t, make_freq([]), top).as_dict()
        assert fv["5000_proc"] == 1.0
        assert fv["5000_freq"] == pytest.approx(150.0)

    def test_attribute_averages_per_bucket(self):
        entries = {"кот": ("кот", "NOUN"), "пёс": ("пёс", "NOUN")}
        freq = make_freq([("кот", Pos.NOUN, 100.0, 10, 20.0, 5),
                          ("пёс", Pos.NOUN, 300.0, 30, 40.0, 15)])
        t = analyzed("кот пёс.", entries)
        fv = lexical_features(t, freq, WordList("top", {})).as_dict()
        assert fv["words_fr"] == pytest.approx(200.0)
        assert fv["s_fr"] == pytest.approx(200.0)
        assert fv["words_r"] == pytest.approx(20.0)
        assert fv["words_d"] == pytest.approx(30.0)
        assert fv["words_doc"] == pytest.approx(10.0)
        assert fv["v_fr"] == 0.0  # no verbs matched

    def test_unmatched_token_skips_denominator(self):
        entries = {"кот": ("кот", "NOUN"), "ёж": ("ёж", "NOUN")}
        freq = make_freq([("кот", Pos.NOUN, 100.0, 10, 20.0, 5)])
        t = analyzed("кот ёж.", entries)
        fv = lexical_features(t, freq, WordList("top", {})).as_dict()
        assert fv["words_fr"] == pytest.approx(100.0)

    def test_no_matches_warns_and_zeroes(self):
        t = analyzed("ёж.", {"ёж": ("ёж", "NOUN")})
        fv = lexical_features(t, make_freq([]), WordList("top", {}))
        assert fv.warnings == ("no_frequency_matches",)
        assert fv.as_dict()["words_fr"] == 0.0

    def test_top5000_without_ipm_falls_back_to_dictionary(self):
        entries = {"кот": ("кот", "NOUN")}
        freq = make_freq([("кот", Pos.NOUN, 123.0, 10, 20.0, 5)])
        top = WordList("top", {"кот": None})
        t = analyzed("кот.", entries)
        assert lexical_features(t, freq, top).as_dict()["5000_freq"] == pytest.approx(123.0)

    def test_pos_specific_lookup_beats_average(self):
        # "печь" noun and verb entries differ; a noun token must take the
        # noun row, not the cross-pos average
        entries = {"печь": ("печь", "NOUN")}
        freq = make_freq([("печь", Pos.NOUN, 100.0, 10, 20.0, 5),
                          ("печь", Pos.VERB, 300.0, 30, 40.0, 15)])
        t = analyzed("печь.", entries)
        assert lexical_features(t, freq, WordList("top", {})).as_dict()["words_fr"] == pytest.approx(100.0)


class TestGrammaticalFeatures:
    def test_mixed_pos_shares(self):
        entries = {"кот": ("кот", "NOUN"), "пёс": ("пёс", "NOUN"),
                   "спит": ("спать", "VERB"), "и": ("и", "OTHER")}
        t = analyzed("кот пёс спит и.", entries)
        fv = grammatical_features(t).as_dict()
        assert (fv["count_n"], fv["count_v"], fv["count_a"]) == (0.5, 0.25, 0.0)

    def test_all_adjectives(self):
        t = analyzed("рыжий рыжий.", {"рыжий": ("рыжий", "ADJ")})
        fv = grammatical_features(t).as_dict()
        assert (fv["count_n"], fv["count_v"], fv["count_a"]) == (0.0, 0.0, 1.0)

    def test_bundled_dictionary_example(self, resources):
        t = analyze("кот спит", resources.morphology)
        fv = grammatical_features(t).as_dict()
        assert (fv["count_n"], fv["count_v"], fv["count_a"]) == (0.5, 0.5, 0.0)

    def test_proper_nouns_are_not_nouns(self):
        t = analyzed("Маша.", {"маша": ("маша", "PROPN")})
        assert grammatical_features(t).as_dict()["count_n"] == 0.0


class TestSentimentFeatures:
    def _lexicon(self):
        return SentimentLexicon({
            "ужасный": (Polarity.NEGATIVE, SentimentCategory.OPINION),
            "радость": (Polarity.POSITIVE, SentimentCategory.FEELING),
        })

    def test_share_of_matching_tokens(self):
        entries = {c: (c, "OTHER") for c in "абвгдежз"}
        entries["ужасный"] = ("ужасный", "ADJ")
        t = analyzed("ужасный ужасный а б в г д е ж з.", entries)
        fv = sentiment_features(t, self._lexicon()).as_dict()
        assert fv["neg_opinion"] == pytest.approx(0.2)
        assert fv["pos_feeling"] == 0.0

    def test_no_hits_all_zero(self):
        t = analyzed("кот.", {"кот": ("кот", "NOUN")})
        fv = sentiment_features(t, self._lexicon())
        assert all(v == 0.0 for v in fv.values)

    def test_lookup_is_by_lemma(self):
        entries = {"ужасного": ("ужасный", "ADJ")}
        t = analyzed("ужасного.", entries)
        assert sentiment_features(t, self._lexicon()).as_dict()["neg_opinion"] == 1.0


class TestPublishingFeatures:
    def test_middle_rating(self):
        assert publishing_features(AgeRating.R12).values == (0, 0, 1, 0, 0)

    def test_unknown_is_all_zero(self):
        assert publishing_features(AgeRating.UNKNOWN).values == (0, 0, 0, 0, 0)

    def test_last_rating(self):
        assert publishing_features(AgeRating.R18).values == (0, 0, 0, 0, 1)

    @pytest.mark.parametrize("rating", [r for r in AgeRating if r is not AgeRating.UNKNOWN])
    def test_one_hot_sums_to_one(self, rating):
        assert sum(publishing_features(rating).values) == 1.0


class TestExtractAll:
    def _doc(self, text="Кот спит. Пёс бежит и играет во дворе.", **kw):
        return Document(id="d", text=text, label=Label.CHILDREN, **kw)

    def test_width_and_order(self, resources):
        fv = extract_all(self._doc(), resources)
        assert fv.names == ALL_FEATURE_NAMES
        assert len(fv.values) == 56

    def test_deterministic(self, resources):
        a = extract_all(self._doc(), resources)
        b = extract_all(self._doc(), resources)
        assert a == b

    def test_empty_preview_rejected(self, resources):
        with pytest.raises(FeatureError, match="empty text"):
            extract_all(self._doc(text="   "), resources)

    @pytest.mark.parametrize("family", ["general", "readability", "lexical", "grammatical",
                                        "sentiment", "publishing"])
    @pytest.mark.parametrize("fault", ["nan", "inf", "duplicate name"])
    def test_faulty_family_vector_rejected(self, resources, monkeypatch, family, fault):
        # the joined vector does not check values again, so each family's
        # own check must stop a non-finite value, and the join must stop
        # a name that another family also has
        compute = getattr(features_mod, f"{family}_features")
        other = FAMILY_NAMES["general" if family != "general" else "sentiment"][0]

        def faulty(*args):
            fv = compute(*args)
            if fault == "duplicate name":
                return FeatureVector((other,) + fv.names[1:], fv.values, fv.warnings)
            return FeatureVector(fv.names, (float(fault),) + fv.values[1:], fv.warnings)

        monkeypatch.setattr(features_mod, f"{family}_features", faulty)
        with pytest.raises(FeatureError, match="duplicate" if fault == "duplicate name" else "non-finite"):
            extract_all(self._doc(), resources)

    def test_age_rating_reflected(self, resources):
        fv = extract_all(self._doc(age_rating=AgeRating.R6), resources)
        assert fv.as_dict()["age_rating_6"] == 1.0
        assert sum(fv.as_dict()[n] for n in FAMILY_NAMES["publishing"]) == 1.0

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
        fv = extract_all(self._doc(), resources).as_dict()
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
        familiar = WordList("f", {"кот": None, "и": None})
        single = readability_features(analyzed(text, entries), familiar)
        double = readability_features(analyzed(text + " " + text, entries), familiar)
        for a, b in zip(single.values, double.values):
            assert a == pytest.approx(b, abs=1e-9)
