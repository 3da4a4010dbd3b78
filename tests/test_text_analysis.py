"""Tokenizer, sentence splitter, syllable counter and morphology."""
import functools
import itertools
import re
import time
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agelex.errors import LexiconError
from agelex.text_analysis import (_ADJ_SUFFIXES, _ADV_SUFFIXES, _ADV_WORDS,
                                  _NOUN_SUFFIXES, _VERB_SUFFIXES,
                                  DictionaryMorphology, HeuristicMorphology,
                                  Pos, RowTable, analyze, count_syllables, distinct,
                                  load_abbreviations, normalize_text,
                                  split_sentences, tokenize)
from agelex.synthetic import make_corpus
from agelex.vectorizer import FRAGMENT_LIMIT, augment_with_abstract, preprocess

import agelex.text_analysis as text_analysis
from oracles import reference_preprocess
from test_features import TEXTS, WHITESPACE, reference_analyze

CYR_WORDS = st.text(alphabet="абвгдежзиклмнопрстуфхцчшщыьэюя", min_size=1, max_size=12)

_WORD_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*")
_TERMINATOR_RE = re.compile("[.!?…]+")


def analysis_fields(t) -> tuple:
    """Every field and view of an analysis, as lists and numbers."""
    return (t.words.tolist(), t.word_ids.tolist(), t.types.tolist(), t.counts.tolist(),
            t.sentence_symbols, t.char_count, t.letter_count, t.symbol_count, t.kept,
            t.surfaces, t.lemmas, t.pos, t.syllables, t.tokens.tolist())


def reference_split_sentences(text, abbreviations=None):
    """The splitter that judged each terminator run on a reversed copy of
    the whole prefix and a copy of the whole suffix: quadratic, and the
    oracle for split_sentences."""
    abbreviations = abbreviations or frozenset()

    def is_boundary(m):
        if m.group(0) == ".":
            w = _WORD_RE.search(text[: m.start()][::-1])
            if w is not None and w.start() == 0 and w.group(0)[::-1].lower() in abbreviations:
                return False
        rest = text[m.end():]
        stripped = rest.lstrip()
        if not stripped:
            return True
        if len(stripped) == len(rest):
            return False
        return stripped[0].isupper()

    spans, prev = [], 0
    for end in [m.end() for m in _TERMINATOR_RE.finditer(text) if is_boundary(m)] + [len(text)]:
        start, stop = prev, end
        while start < stop and text[start].isspace():
            start += 1
        while stop > start and text[stop - 1].isspace():
            stop -= 1
        if start < stop:
            spans.append((start, stop))
        prev = end
    return spans


def reference_heuristic_analyze(surface):
    """HeuristicMorphology.analyze as it was when it sorted each suffix
    table, longest first, on every call."""
    low = surface.lower()
    if low in _ADV_WORDS:
        return (low, Pos.ADV)
    for pos, suffixes in ((Pos.ADV, _ADV_SUFFIXES), (Pos.ADJ, _ADJ_SUFFIXES),
                          (Pos.VERB, _VERB_SUFFIXES), (Pos.NOUN, _NOUN_SUFFIXES)):
        for suf in sorted(suffixes, key=len, reverse=True):
            if len(low) > len(suf) + 1 and low.endswith(suf):
                return (low, pos)
    if len(surface) > 2 and surface[0].isupper() and surface[1:].islower():
        return (low, Pos.PROPN)
    return (low, Pos.OTHER)


ABBREVIATIONS = frozenset({"г", "тт", "жил-был", "etc"})
# Each piece is a word, maybe glued to hyphens, digits, underscores, a
# non-decimal digit or a letter whose lowercase is longer, then maybe a
# terminator run and whitespace.  Words are abbreviations or runs of
# every length around the abbreviations'.
_WORDS = (st.sampled_from(sorted(ABBREVIATIONS))
          | st.sampled_from(sorted(ABBREVIATIONS)).map(str.capitalize)
          | st.text(alphabet="гтДaE-_1²İ", min_size=1, max_size=40))
SENTENCE_PIECES = st.tuples(st.text(alphabet="-_1²İД ", max_size=2), _WORDS,
                            st.sampled_from([".", ".", "..", "!", "?!", "…", ""]),
                            st.sampled_from([" ", " ", "  ", "\n", "\u00a0", ""])).map("".join)


# runs of whitespace and stress marks, and joined corpus previews
_SPACES_AND_ACCENTS = st.lists(st.sampled_from(WHITESPACE + ["\u0301", "\u0300", "е\u0300"]),
                               min_size=1, max_size=4).map("".join)
_PREVIEWS = st.lists(st.integers(0, 39), min_size=1, max_size=60).map(
    lambda picks: " ".join(corpus_previews()[i].text for i in picks))


@functools.cache
def corpus_previews():
    return make_corpus(20, 20, seed=3).documents


def best_seconds(run, repeats):
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        times.append(time.perf_counter() - started)
    return min(times)


class TestTokenize:
    def test_hyphenated_word_kept_whole(self):
        assert tokenize("Жил-был кот.") == ["Жил-был", "кот"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_runs_with_digits_are_not_tokens(self):
        assert tokenize("A1 b") == ["b"]

    def test_char_count_still_covers_digit_runs(self):
        t = analyze("A1 b", HeuristicMorphology())
        assert t.char_count == 3  # A, 1, b
        assert t.letter_count == 2

    def test_punctuation_excluded(self):
        assert tokenize("кот, пёс; ёж!") == ["кот", "пёс", "ёж"]

    def test_underscore_is_not_a_word_character(self):
        assert tokenize("a_b") == ["a", "b"]

    @given(st.text(max_size=60))
    def test_tokens_are_nonempty_and_alphabetic(self, text):
        for tok in tokenize(text):
            assert tok
            assert all(ch.isalpha() or ch == "-" for ch in tok)

    @given(st.text(max_size=60))
    @example("Ма\u0301ма e\u0301 Å 說")
    def test_tokens_appear_in_order(self, text):
        # in the text as read: accents dropped, NFC-composed
        text = normalize_text(text)
        pos = 0
        for tok in tokenize(text):
            found = text.find(tok, pos)
            assert found >= 0
            pos = found + 1

    def test_stress_marks_and_decomposed_letters_do_not_split_words(self):
        assert tokenize("Ма\u0301ма мы\u0300ла ра\u0301му.") == ["Мама", "мыла", "раму"]
        assert tokenize(unicodedata.normalize("NFD", "Ёжик и йод.")) == ["Ёжик", "и", "йод"]


class TestNormalizeText:
    def test_plain_text_is_returned_as_is(self):
        text = "Ёжик, caf\u00e9 и \u0450."
        assert normalize_text(text) is text

    def test_accents_dropped_and_letters_composed(self):
        marked = unicodedata.normalize("NFD", "Ёжик и йод") + " е\u0300ж а\u0301\u0301"
        assert normalize_text(marked) == "Ёжик и йод еж а"

    @given(st.text(max_size=40))
    @example("\u0341")
    @example("a\u0323\u0301\u0302")
    @example("\u00e1\u0323\u0302")
    def test_idempotent_nfc_and_free_of_accents(self, text):
        once = normalize_text(text)
        assert normalize_text(once) == once
        assert unicodedata.is_normalized("NFC", once)
        assert "\u0300" not in once and "\u0301" not in once


class TestSplitSentences:
    def test_two_sentences(self):
        assert len(split_sentences("Кот. Пёс!")) == 2

    def test_no_terminator_is_one_sentence(self):
        assert len(split_sentences("привет")) == 1

    def test_abbreviation_suppresses_split(self):
        spans = split_sentences("г. Москва слово", abbreviations=frozenset({"г"}))
        assert len(spans) == 1

    def test_without_abbreviation_list_it_splits(self):
        assert len(split_sentences("г. Москва слово")) == 2

    def test_lowercase_continuation_does_not_split(self):
        assert len(split_sentences("Он ушёл... и вернулся.")) == 1

    def test_terminator_run_is_one_boundary(self):
        assert len(split_sentences("Как?! Так.")) == 2

    def test_spans_are_trimmed(self):
        text = "Кот.  Пёс."
        spans = split_sentences(text)
        assert [text[a:b] for a, b in spans] == ["Кот.", "Пёс."]

    def test_empty_text(self):
        assert split_sentences("") == []

    @given(st.text(max_size=80))
    def test_spans_ordered_and_disjoint(self, text):
        spans = split_sentences(text)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert a1 < b1 <= a2 < b2

    @settings(max_examples=500)
    @given(st.lists(SENTENCE_PIECES, max_size=12).map("".join),
           st.one_of(st.just(ABBREVIATIONS), st.none(),
                     st.frozensets(st.text(alphabet="гт-", min_size=1, max_size=3), max_size=3)))
    @example("Жил-был кот. Г. Конец", ABBREVIATIONS)
    @example("аг-тт. Кот", ABBREVIATIONS)
    @example("Кот -тт. Пёс", ABBREVIATIONS)
    @example("Кот ²тт. Пёс", ABBREVIATIONS)
    @example("Кот 1тт. Пёс", ABBREVIATIONS)
    @example("Кот тт.. Пёс", ABBREVIATIONS)
    @example("Кот İ. Пёс", frozenset({"i̇"}))
    @example("Кот xжил-был. Пёс", ABBREVIATIONS)
    @example("Кот аг-жил-был. Пёс", ABBREVIATIONS)
    @example("Кот тт . Пёс", ABBREVIATIONS)
    @example("Кот т-. Пёс", frozenset({"т-"}))
    @example("Кот...   ", None)
    def test_spans_match_reference(self, text, abbreviations):
        assert split_sentences(text, abbreviations) == reference_split_sentences(text, abbreviations)

    def test_cost_grows_linearly(self, resources):
        # eight times the text takes about eight times as long; the
        # reference copies the prefix and suffix at every run and takes
        # about 50 times as long
        text = "Он жил в г. Москве... Дом-музей им. Толстого стоит тут!  Правда?! Да. " * 300
        once = best_seconds(lambda: split_sentences(text, resources.abbreviations), 5)
        eight = best_seconds(lambda: split_sentences(text * 8, resources.abbreviations), 3)
        assert eight / once < 24


class TestChunks:
    """analyze() and preprocess() read a text as its whitespace chunks,
    with split_sentences() and tokenize() as their oracles."""

    ALL_CHARACTERS = "".join(map(chr, range(0x110000)))

    def test_split_cuts_at_the_whitespace_of_the_patterns(self):
        # str.isspace(), str.split() and re's \s agree on every code point
        text = self.ALL_CHARACTERS
        assert re.findall(r"\s", text) == list(filter(str.isspace, text))
        assert "".join(text.split()) == "".join(ch for ch in text if not ch.isspace())

    def test_isalnum_is_the_run_character_class(self):
        text = self.ALL_CHARACTERS
        assert re.findall(r"[^\W_]", text) == list(filter(str.isalnum, text))

    def test_normalizing_never_crosses_whitespace(self):
        # Every whitespace character is a starter whose decomposition is
        # one whitespace character, and no other character decomposes to
        # anything holding whitespace.  So normalize_text() keeps each
        # whitespace character whitespace, makes none, and never reorders
        # or composes across it (a composite holds whitespace in its
        # decomposition only if it is whitespace, and whitespace
        # decomposes to one character, which composes with nothing).
        # preprocess() may therefore normalize only the chunks it reads.
        text = self.ALL_CHARACTERS
        for ch in filter(str.isspace, text):
            decomposed = unicodedata.normalize("NFD", ch)
            assert unicodedata.combining(ch) == 0 and len(decomposed) == 1 \
                and decomposed.isspace(), hex(ord(ch))
        others = "".join(ch for ch in text if not ch.isspace())
        assert not any(map(str.isspace, unicodedata.normalize("NFD", others)))
        # the same, read as whole texts: every character between spaces
        assert (normalize_text(" ".join(text)).split()
                == list(itertools.chain.from_iterable(normalize_text(ch).split() for ch in text)))

    @settings(max_examples=300)
    @given(st.lists(st.tuples(SENTENCE_PIECES, st.sampled_from(WHITESPACE + [""])).map("".join),
                    max_size=12).map("".join),
           st.one_of(st.just(ABBREVIATIONS), st.none(),
                     st.frozensets(st.text(alphabet="гт-", min_size=1, max_size=3), max_size=3)))
    @example("Кот\u3000г.\u2028Москва. Пёс", ABBREVIATIONS)
    @example("Кот a.B и!» Пёс… Конец", ABBREVIATIONS)
    @example("Жил-был\x1cкот.\x85Пёс", ABBREVIATIONS)
    def test_sentences_are_the_spans_of_split_sentences(self, text, abbreviations):
        t = analyze(text, HeuristicMorphology(), abbreviations)
        ref = reference_analyze(text, HeuristicMorphology(), abbreviations)
        assert ((t.n_sentences, t.sentence_symbols, t.symbol_count, t.n_tokens)
                == (ref.n_sentences, ref.sentence_symbols, ref.symbol_count, ref.n_tokens))

    @pytest.mark.parametrize("cap", [0, 3, text_analysis.TABLE_CAP])
    @settings(max_examples=100, deadline=None)
    @given(reads=st.lists(st.tuples(
        st.lists(SENTENCE_PIECES, max_size=8).map("".join),
        st.sampled_from([ABBREVIATIONS, None, frozenset({"г"}), frozenset({"д", "тт"})])
        | st.builds(lambda: frozenset(set(ABBREVIATIONS)))  # equal, not the same object
        | st.frozensets(st.text(alphabet="гтД-", min_size=1, max_size=3), max_size=3)),
        min_size=1, max_size=6))
    def test_one_provider_reads_with_each_abbreviation_set(self, cap, reads):
        # a set's abbreviations get ids before its call's rows, and keys
        # that kept rows gave ids earlier keep them
        morph = HeuristicMorphology()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(text_analysis, "TABLE_CAP", cap)
            for text, abbreviations in reads:
                t = analyze(text, morph, abbreviations)
                ref = reference_analyze(text, HeuristicMorphology(), abbreviations)
                assert ((t.n_sentences, t.sentence_symbols)
                        == (ref.n_sentences, ref.sentence_symbols)), (text, abbreviations)

    @pytest.mark.parametrize("heuristic", [False, True])
    @settings(max_examples=150)
    @given(text=TEXTS | st.text(max_size=60))
    @example(text="Ма\u0301ма\u3000мыла раму.\u2028Кот-кот,спит…»")
    def test_preprocess_is_the_tokenize_lemma_chain(self, heuristic, text, resources,
                                                    heuristic_resources):
        res = heuristic_resources if heuristic else resources
        # a text holds fewer tokens than characters, so this limit keeps
        # the whole lemma chain
        assert (preprocess(text, res.morphology, res.stopwords, len(text) + 1)
                == reference_preprocess(text, res.morphology, res.stopwords))

    @pytest.mark.parametrize("heuristic", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(parts=st.lists(TEXTS | _SPACES_AND_ACCENTS | _PREVIEWS, max_size=8),
           with_abstract=st.booleans(), limit=st.integers(1, 300))
    @example(parts=["и " * 700, "Кот\u2028ма\u0301ма"], with_abstract=True, limit=300)
    @example(parts=["\u0301 \u0300 е\u0300", "\u3000" * 3, "кот"], with_abstract=False, limit=1)
    def test_fragment_is_the_head_of_the_lemma_chain(self, heuristic, parts, with_abstract,
                                                     limit, resources, heuristic_resources):
        # the chunks read in rounds, joined previews and their abstracts
        # included, give the first lemmas of the whole chain
        res = heuristic_resources if heuristic else resources
        abstract = corpus_previews()[len(parts)].abstract if with_abstract else None
        text = augment_with_abstract("".join(parts), abstract)
        assert (preprocess(text, res.morphology, res.stopwords, limit)
                == reference_preprocess(text, res.morphology, res.stopwords)[:limit])

    def test_fragment_cost_does_not_grow_with_the_preview(self, resources):
        # the 256-lemma fragment of a 20,000-token preview reads about as
        # much of it as the fragment of a 2,000-token one
        def preview(tokens):
            texts = []
            for doc in itertools.cycle(corpus_previews()):
                texts.append(doc.text)
                tokens -= len(doc.text.split())
                if tokens <= 0:
                    return " ".join(texts)

        def read(text):
            return lambda: preprocess(text, resources.morphology, resources.stopwords,
                                      FRAGMENT_LIMIT)

        short, long = preview(2_000), preview(20_000)
        assert read(short)() == read(long)()
        assert best_seconds(read(long), 20) / best_seconds(read(short), 20) < 2

    @pytest.mark.parametrize("make", [lambda n: "кот." * n, lambda n: "а-" * n + "1-а.",
                                      lambda n: "а-" * n + "-г.", lambda n: "!?…" * n,
                                      lambda n: "и " * n],
                             ids=["glued-line", "hyphen-chain", "hyphen-abbreviation",
                                  "punctuation-run", "stopword-chunks"])
    def test_cost_grows_linearly(self, resources, make):
        # eight times the text takes about eight times as long; searching
        # the whole hyphen chain for the word before its final period, an
        # abbreviation or not, takes about 64 times as long.  A fragment
        # of stop words reads the whole text, in rounds.
        def read(n):
            text = make(n)
            return lambda: (analyze(text, resources.morphology, resources.abbreviations),
                            preprocess(text, resources.morphology, resources.stopwords,
                                       FRAGMENT_LIMIT))

        once = best_seconds(read(2000), 5)
        assert best_seconds(read(16000), 3) / once < 24


class TestRowTable:
    # short keys, one of exactly CHUNK_LIMIT characters, and two longer
    _KEYS = (list("abcdef") + ["g" * text_analysis.CHUNK_LIMIT]
             + ["h" * (text_analysis.CHUNK_LIMIT + 1), "i" * 100])

    @pytest.mark.parametrize("cap", [0, 3, text_analysis.TABLE_CAP])
    @settings(max_examples=100, deadline=None)
    @given(calls=st.lists(st.lists(st.sampled_from(_KEYS), max_size=8), max_size=8))
    def test_resolve(self, cap, calls):
        batches = []

        def rows(new, start):
            batches.append(new)
            return [[self._KEYS.index(key), start + i] for i, key in enumerate(new)]

        table, first_ids, seen, longest = RowTable(2, np.int64), {}, set(), 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(text_analysis, "TABLE_CAP", cap)
            for keys in calls:
                before = dict(table.ids)
                batches.clear()
                found = table.resolve(keys, rows).tolist()
                new = [key for key in dict.fromkeys(keys) if key not in before]
                # each new key reaches the resolver once, in one batch
                assert [sorted(batch) for batch in batches] == ([sorted(new)] if new else [])
                # every key reads its own row, kept or for this call
                assert table.array[found, 0].tolist() == list(map(self._KEYS.index, keys))
                assert table.array[found, 1].tolist() == found
                # a kept key's id never changes
                assert {key: table.ids[key] for key in first_ids} == first_ids
                first_ids.update(table.ids)
                seen.update(key for key in keys if len(key) <= text_analysis.CHUNK_LIMIT)
                assert len(table.ids) == min(cap, len(seen))
                # this call's other keys, and only they, follow the kept rows
                assert set(table.tail) == set(keys) - set(table.ids)
                assert (sorted(table.ids.values()) + sorted(table.tail.values())
                        == list(range(len(table.ids) + len(table.tail))))
                longest = max(longest, len(table.tail))
                assert len(table.array) <= max(64, cap, len(table.ids) + longest)


class TestCountSyllables:
    @pytest.mark.parametrize("word,expected", [
        ("кот", 1),
        ("молоко", 3),
        ("всплеск", 1),
        ("мама", 2),
        ("ёж", 1),
        ("яблоко", 3),
        ("cat", 1),
        ("banana", 3),
        ("rhythm", 1),  # y counts as a vowel
    ])
    def test_known_words(self, word, expected):
        assert count_syllables(word) == expected

    def test_floor_of_one_for_vowelless(self):
        assert count_syllables("стрч") == 1

    def test_case_insensitive(self):
        assert count_syllables("МОЛОКО") == count_syllables("молоко")

    @given(CYR_WORDS)
    def test_at_least_one(self, word):
        assert count_syllables(word) >= 1

    @given(CYR_WORDS, st.integers(min_value=0, max_value=5))
    def test_monotone_under_vowel_insertion(self, word, pos):
        pos = min(pos, len(word))
        augmented = word[:pos] + "о" + word[pos:]
        assert count_syllables(augmented) >= count_syllables(word)


class TestDictionaryMorphology:
    def test_bundled_lookup(self, morph):
        assert morph.analyze("кот") == ("кот", Pos.NOUN)
        assert morph.analyze("спит") == ("спать", Pos.VERB)

    def test_lookup_is_case_insensitive(self, morph):
        assert morph.analyze("КОТ") == morph.analyze("кот")

    def test_unknown_surface_returns_none(self, morph):
        assert morph.analyze("qqqq") is None

    def test_load_rejects_wrong_field_count(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("кот\tкот\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="row 1"):
            DictionaryMorphology.load(p)

    def test_load_rejects_unknown_pos(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("кот\tкот\tNOU\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="row 1"):
            DictionaryMorphology.load(p)

    def test_first_duplicate_wins(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("кот\tкот\tNOUN\nкот\tдруг\tVERB\n", encoding="utf-8")
        md = DictionaryMorphology.load(p)
        assert md.analyze("кот") == ("кот", Pos.NOUN)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("# header\n\nкот\tкот\tNOUN\n", encoding="utf-8")
        assert DictionaryMorphology.load(p)._entries == {"кот": ("кот", Pos.NOUN)}


class TestHeuristicMorphology:
    def test_adjective_suffix(self):
        assert HeuristicMorphology().analyze("красивый")[1] is Pos.ADJ

    def test_verb_suffix(self):
        assert HeuristicMorphology().analyze("бежать")[1] is Pos.VERB

    def test_noun_suffix(self):
        assert HeuristicMorphology().analyze("радость")[1] is Pos.NOUN

    def test_known_adverb(self):
        assert HeuristicMorphology().analyze("быстро")[1] is Pos.ADV

    def test_titlecase_fallback_is_proper_noun(self):
        assert HeuristicMorphology().analyze("Маша")[1] is Pos.PROPN

    def test_everything_else_is_other(self):
        assert HeuristicMorphology().analyze("и")[1] is Pos.OTHER

    def test_lemma_is_lowercased_surface(self):
        assert HeuristicMorphology().analyze("Быстро")[0] == "быстро"

    @pytest.mark.parametrize("stem", ["", "к", "ка", "Ка"])
    def test_matches_per_call_sorting(self, stem):
        # the tables are sorted once per class and the reference sorts
        # them on every call; the stems fall on both sides of the length
        # rule, and from two letters on every suffix matches
        morph = HeuristicMorphology()
        for suffix in _ADV_SUFFIXES + _ADJ_SUFFIXES + _VERB_SUFFIXES + _NOUN_SUFFIXES:
            word = stem + suffix
            assert morph.analyze(word) == reference_heuristic_analyze(word), word


class TestAnalyze:
    def test_dictionary_annotation(self, morph):
        t = analyze("Кот спит.", morph)
        assert t.n_tokens == 2
        assert t.n_sentences == 1
        first, second = t.tokens
        assert (t.lemmas[first], t.pos[first]) == ("кот", Pos.NOUN)
        assert (t.lemmas[second], t.pos[second]) == ("спать", Pos.VERB)

    def test_empty_text(self, morph):
        t = analyze("", morph)
        assert t.n_tokens == 0 and t.n_sentences == 0

    def test_oov_fallback_is_other(self, morph):
        t = analyze("Qqqq zzz.", morph)
        assert [t.pos[i] for i in t.tokens] == [Pos.OTHER, Pos.OTHER]
        assert t.lemmas[t.tokens[0]] == "qqqq"

    def test_counts(self, morph):
        t = analyze("Кот спит.", morph)
        assert t.char_count == 7
        assert t.letter_count == 7
        assert t.symbol_count == 8  # includes the period
        assert t.sentence_symbols == [8]

    def test_char_count_never_exceeds_symbol_count(self, morph):
        for text in ("Кот, пёс!", "A1 b.", "- тире - и №5"):
            t = analyze(text, morph)
            assert t.char_count <= t.symbol_count

    def test_token_only_spans_kept(self, morph):
        t = analyze("Кот. ... Пёс.", morph)
        assert t.n_sentences == 2

    @given(st.text(alphabet="абв АБВ.!?…-", max_size=60))
    def test_token_count_matches_tokenize(self, text):
        md = HeuristicMorphology()
        assert analyze(text, md).n_tokens == len(tokenize(text))

    @given(st.text(alphabet="абвг АБВГ.!?", max_size=60))
    def test_sentence_ranges_partition_tokens(self, text):
        # the reference's token ranges partition the tokens, and analyze()
        # counts the same sentences with the same symbols
        t = analyze(text, HeuristicMorphology())
        ref = reference_analyze(text, HeuristicMorphology())
        prev_end = 0
        for first, last in ref.sentences:
            assert first == prev_end
            assert last > first
            prev_end = last
        assert prev_end == t.n_tokens
        assert (t.n_sentences, t.sentence_symbols) == (ref.n_sentences, ref.sentence_symbols)

    def test_deterministic(self, morph):
        text = "Кот спит. Пёс бежит! Маша читает?"
        first = analyze(text, morph)
        second = analyze(text, morph)
        assert analysis_fields(first) == analysis_fields(second)

    @settings(max_examples=100)
    @given(values=st.lists(st.integers(-50, 50), max_size=40))
    def test_distinct_is_unique_with_counts(self, values):
        values = np.array(values, dtype=np.int64)
        assert [a.tolist() for a in distinct(values)] == [
            a.tolist() for a in np.unique(values, return_counts=True)]

    def test_compares_by_identity(self, morph):
        first, second = (analyze("Кот спит.", morph) for _ in range(2))
        assert (first == first, first == second) == (True, False)

    @pytest.mark.parametrize("cap", [0, text_analysis.TABLE_CAP])
    def test_views_outlast_the_next_call(self, monkeypatch, cap):
        # under cap 0 no row is kept, and the rows of one call last only
        # until the next call resolves a chunk
        monkeypatch.setattr(text_analysis, "TABLE_CAP", cap)
        morph = HeuristicMorphology()
        t = analyze("Кот видел бармаглота. Бармаглот спал!", morph)
        views = t.surfaces, t.lemmas, t.pos, t.syllables
        assert views[0] and views[2] != [Pos.OTHER] * len(views[2])
        analyze("Пёс бежит домой. Синий дом стоит!", morph)
        assert (t.surfaces, t.lemmas, t.pos, t.syllables) == views


class TestAbbreviations:
    def test_load(self, tmp_path):
        p = tmp_path / "abbr.txt"
        p.write_text("г.\nУл\n# comment\n\nт.е.\n", encoding="utf-8")
        abbr = load_abbreviations(p)
        assert "г" in abbr and "ул" in abbr
        assert "т.е" in abbr

    def test_bundled_list_suppresses_geographic_dot(self, resources):
        spans = split_sentences("г. Москва слово", resources.abbreviations)
        assert len(spans) == 1

    def test_a_set_is_looked_up_once_per_provider(self):
        # a call looks its chunks' abbreviation keys up in the table built
        # for the set, which an equal set reuses: no call walks the list
        abbreviations = frozenset(["г"] + [f"кот{'а' * i}" for i in range(500)])
        morph = HeuristicMorphology()
        assert analyze("Жил в г. Москва. Кот спал", morph, abbreviations).n_sentences == 2
        table = morph._abbreviated(abbreviations)
        for text, sentences in (("Кот. Пёс г. Дом", 1), ("Котаа. Пёс", 1), ("Пёс. Котаа", 2)):
            assert analyze(text, morph, frozenset(set(abbreviations))).n_sentences == sentences
            assert morph._abbreviated(abbreviations) is table
