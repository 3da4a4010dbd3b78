"""Corpus loading, validation, splits and summary statistics."""
import json

import pytest
from hypothesis import given, strategies as st

from agelex.corpus import (AgeRating, Corpus, Document, Label, Split,
                           corpus_stats, load_corpus, random_split,
                           write_corpus)
from agelex.errors import CorpusError
from agelex.resources import BUNDLED_FILES
from agelex.text_analysis import (DictionaryMorphology, HeuristicMorphology, MorphologyProvider,
                                  load_abbreviations)

from oracles import NESTED_TOO_DEEPLY
from test_features import TEXTS

ABBREVIATIONS = load_abbreviations(BUNDLED_FILES["abbreviations"])


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def make_doc(i, label=Label.CHILDREN, split=Split.TRAIN, **kw):
    return Document(id=f"d{i}", text=f"Текст номер {i}.", label=label, split=split, **kw)


class TestLoadCorpus:
    def test_minimal_record(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"children"}'])
        corpus = load_corpus(p)
        assert len(corpus) == 1
        doc = corpus.documents[0]
        assert doc.split is Split.TRAIN
        assert doc.age_rating is AgeRating.UNKNOWN
        assert doc.abstract is None

    def test_duplicate_id_names_the_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"children"}',
                        '{"id":"b1","text":"Пёс.","label":"adult"}'])
        with pytest.raises(CorpusError, match="b1"):
            load_corpus(p)

    def test_age_rating_parsed(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"children","age_rating":"12+"}'])
        assert load_corpus(p).documents[0].age_rating is AgeRating.R12

    def test_malformed_json_reports_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"children"}', "{oops"])
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(p)

    def test_line_nested_too_deeply_reports_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"children"}', NESTED_TOO_DEEPLY])
        with pytest.raises(CorpusError, match="line 2: malformed JSON"):
            load_corpus(p)

    def test_unknown_label_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"teen"}'])
        with pytest.raises(CorpusError, match="teen"):
            load_corpus(p)

    def test_label_case_insensitive(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"Children"}'])
        assert load_corpus(p).documents[0].label is Label.CHILDREN

    def test_empty_text_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"   ","label":"adult"}'])
        with pytest.raises(CorpusError, match="text"):
            load_corpus(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"adult","extra":1}'])
        with pytest.raises(CorpusError, match="extra"):
            load_corpus(p)

    def test_invalid_age_rating_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"adult","age_rating":"21+"}'])
        with pytest.raises(CorpusError, match="21"):
            load_corpus(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, ['{"id":"b1","text":"Кот.","label":"children"}', "", "  "])
        assert len(load_corpus(p)) == 1


class TestRoundTrip:
    def test_full_fidelity(self, tmp_path):
        docs = [
            make_doc(1, abstract="Аннотация.", age_rating=AgeRating.R6, genre="Сказки"),
            make_doc(2, label=Label.ADULT, split=Split.TEST),
            make_doc(3),
        ]
        corpus = Corpus(docs)
        p = tmp_path / "c.jsonl"
        write_corpus(corpus, p)
        loaded = load_corpus(p)
        assert loaded.documents == docs

    def test_absent_optionals_omitted_from_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(Corpus([make_doc(1)]), p)
        record = json.loads(p.read_text(encoding="utf-8"))
        assert "abstract" not in record and "genre" not in record and "age_rating" not in record
        assert record["split"] == "train"

    def test_lf_line_endings(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_corpus(Corpus([make_doc(1), make_doc(2)]), p)
        blob = p.read_bytes()
        assert b"\r" not in blob


class TestRandomSplit:
    def _corpus(self, n_children=10, n_adult=10):
        docs = [make_doc(i) for i in range(n_children)]
        docs += [make_doc(100 + i, label=Label.ADULT) for i in range(n_adult)]
        return Corpus(docs)

    def test_partition_covers_all(self):
        corpus = random_split(self._corpus(), 0.3, seed=1)
        assert len(corpus.subset(Split.TRAIN)) + len(corpus.subset(Split.TEST)) == len(corpus)

    def test_stratified_by_label(self):
        corpus = random_split(self._corpus(20, 20), 0.25, seed=5)
        for label in Label:
            test_n = sum(1 for d in corpus.subset(Split.TEST) if d.label == label)
            assert test_n == 5

    def test_deterministic_in_seed(self):
        a = random_split(self._corpus(), 0.3, seed=7)
        b = random_split(self._corpus(), 0.3, seed=7)
        assert [d.split for d in a] == [d.split for d in b]

    def test_different_seeds_differ(self):
        a = random_split(self._corpus(50, 50), 0.5, seed=1)
        b = random_split(self._corpus(50, 50), 0.5, seed=2)
        assert [d.split for d in a] != [d.split for d in b]

    def test_order_preserved(self):
        corpus = self._corpus()
        assert [d.id for d in random_split(corpus, 0.4, seed=3)] == [d.id for d in corpus]

    def test_fraction_bounds(self):
        with pytest.raises(CorpusError):
            random_split(self._corpus(), 1.5)

    @given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=2 ** 31))
    def test_sizes_rounded_per_class(self, pct, seed):
        fraction = pct / 100.0
        corpus = random_split(self._corpus(11, 7), fraction, seed)
        test = corpus.subset(Split.TEST)
        assert sum(1 for d in test if d.label is Label.CHILDREN) == round(11 * fraction)
        assert sum(1 for d in test if d.label is Label.ADULT) == round(7 * fraction)


class TestCorpusStats:
    def test_single_document_cell(self, resources):
        doc = Document(id="x", text="Кот спит. Пёс бежит рядом.", label=Label.CHILDREN)
        stats = corpus_stats(Corpus([doc]), resources.morphology, resources.abbreviations)
        cell = stats[(Label.CHILDREN, Split.TRAIN)]
        assert cell.count == 1
        assert cell.avg_tokens == 5.0
        assert cell.avg_sentences == 2.0
        assert cell.avg_symbols == 22.0  # non-whitespace characters

    def test_empty_cells_have_none_averages(self, resources):
        doc = Document(id="x", text="Кот.", label=Label.CHILDREN)
        stats = corpus_stats(Corpus([doc]), resources.morphology)
        empty = stats[(Label.ADULT, Split.TEST)]
        assert empty.count == 0
        assert empty.avg_tokens is None

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="empty corpus"):
            corpus_stats(Corpus([]))

    @given(st.lists(st.tuples(TEXTS, st.sampled_from(sorted(ABBREVIATIONS)), TEXTS,
                              st.sampled_from(Label), st.sampled_from(Split)),
                    min_size=1, max_size=6))
    def test_counts_do_not_depend_on_the_morphology(self, resources, records):
        # why agelex stats reads no morphology file: words, sentences and
        # symbols are found without a lemma or part of speech
        corpus = Corpus([Document(id=f"d{i}", text=f"{head} {abbr}. {tail}", label=label,
                                  split=split)
                         for i, (head, abbr, tail, label, split) in enumerate(records)])
        for abbreviations in (None, ABBREVIATIONS):
            expected = corpus_stats(corpus, resources.morphology, abbreviations)
            assert corpus_stats(corpus, abbreviations=abbreviations) == expected
            for morphology in (HeuristicMorphology(), DictionaryMorphology({}),
                               MorphologyProvider()):
                assert corpus_stats(corpus, morphology, abbreviations) == expected
