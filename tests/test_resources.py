"""Resources and the per-type tables it keeps: a chunk table on the
morphology provider and a (lemma, pos) table on its Lexicon."""
import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import agelex.text_analysis as text_analysis
from agelex.corpus import Document, Label
from agelex.errors import ConfigError
from agelex.features import extract_all
from agelex.lexicons import load_frequency_dict
from agelex.resources import BUNDLED_FILES, Resources
from agelex.synthetic import make_corpus
from agelex.text_analysis import DictionaryMorphology, HeuristicMorphology, tokenize

from test_features import TEXTS, outcome

OTHER_TEXTS = [doc.text for doc in make_corpus(3, 3, seed=11)]


def table_sizes(resources: Resources) -> tuple[int, int]:
    return len(resources.morphology._table.ids), len(resources.lexicon._table.ids)


def key_texts(resources: Resources, table: str) -> list[str]:
    """The chunks the morphology table keeps, or the lemmas of the
    lexicon table's keys."""
    if table == "morphology":
        return list(resources.morphology._table.ids)
    return [lemma for lemma, _ in resources.lexicon._table.ids]


def doubled_frequency_file(tmp_path) -> Path:
    """The bundled frequency dictionary with every ipm doubled."""
    lines = BUNDLED_FILES["frequency"].read_text(encoding="utf-8").splitlines()
    doubled = [lines[0]] + ["\t".join([lemma, pos, str(2 * float(ipm)), r, d, doc])
                            for lemma, pos, ipm, r, d, doc in map(str.split, lines[1:])]
    path = tmp_path / "frequency.tsv"
    path.write_text("\n".join(doubled) + "\n", encoding="utf-8")
    return path


def separate_outcomes(texts, doubled_path) -> dict[str, list]:
    """The outcome of each text read by fresh bundled resources and by
    fresh resources with the doubled frequency file, which differ."""
    expected = {key: [outcome(text, Resources.load(paths)) for text in texts]
                for key, paths in (("bundled", None), ("doubled", {"frequency": doubled_path}))}
    assert expected["bundled"] != expected["doubled"]
    return expected


class CountingMorphology(DictionaryMorphology):
    """The bundled dictionary, counting the keys its table resolves and
    the surfaces analyze() is asked for."""

    def __init__(self, entries, fallback=None):
        super().__init__(entries, fallback)
        self.resolved, self.analyzed = Counter(), Counter()

    def _resolve(self, chunks, start):
        self.resolved.update(chunks)
        return super()._resolve(chunks, start)

    def analyze(self, surface):
        self.analyzed[surface] += 1
        return super().analyze(surface)


def counting_resources() -> Resources:
    return dataclasses.replace(Resources.bundled(),
                               morphology=CountingMorphology.load(BUNDLED_FILES["morphology"]))


class TestTables:
    @pytest.mark.parametrize("heuristic", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(text=TEXTS, others=st.lists(TEXTS, max_size=3), cap=st.integers(0, 6))
    def test_cold_warm_and_full_tables_agree(self, heuristic, text, others, cap):
        def fresh():
            return Resources.load(heuristic_fallback=heuristic)

        cold = outcome(text, fresh())
        warm = fresh()
        for other in others + OTHER_TEXTS[:2]:
            outcome(other, warm)
        assert outcome(text, warm) == cold
        assert outcome(text, warm) == cold  # every row of the text now kept
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(text_analysis, "TABLE_CAP", cap)
            full = fresh()
            for other in others + OTHER_TEXTS:
                outcome(other, full)
            assert table_sizes(full) == (cap, cap)
            assert outcome(text, full) == cold
            assert table_sizes(full) == (cap, cap)

    def test_no_table_outgrows_the_cap(self, monkeypatch):
        monkeypatch.setattr(text_analysis, "TABLE_CAP", 25)
        resources = Resources.load(heuristic_fallback=True)
        sizes = []
        for sentence in " ".join(OTHER_TEXTS).split(". "):
            outcome(sentence, resources)
            sizes.append(table_sizes(resources))
        assert max(sizes[0]) < 25  # the tables fill as texts are read
        assert max(max(s) for s in sizes) == 25

    @pytest.mark.parametrize("table", ["morphology", "lexicon"])
    def test_a_full_table_holds_the_kept_rows_and_one_calls(self, table):
        # each call past a full table needs rows for its new keys, and no more
        words = list(map("".join, itertools.islice(
            itertools.product("абвгдежзиклмнопрстуфхцчшщэюя", repeat=4), 52_000)))
        resources = Resources.load()
        for i in range(0, len(words), 1000):
            extract_all(Document(id="d", text=" ".join(words[i:i + 1000]), label=Label.CHILDREN),
                        resources)
        rows = getattr(resources, table)._table
        assert len(rows.ids) == text_analysis.TABLE_CAP
        assert 0 < len(rows.tail) <= 1000
        assert len(rows.array) <= text_analysis.TABLE_CAP + len(rows.tail)

    def test_chunk_table_keeps_no_long_chunk(self):
        limit = text_analysis.CHUNK_LIMIT
        long_chunks = ["кот." * limit, "«" + "а" * limit + "»", "!" * (limit + 1), "ш" * 200]
        resources = Resources.load()
        outcome(" ".join(long_chunks + ["Кот,", "«Пёс»", "!" * limit]), resources)
        table = set(resources.morphology._table.ids)
        assert {"Кот,", "«Пёс»", "!" * limit, "кот", "а" * limit} <= table
        assert max(map(len, table)) <= limit
        assert outcome(" ".join(long_chunks), resources) == outcome(" ".join(long_chunks), Resources.load())

    @pytest.mark.parametrize("table", ["morphology", "lexicon"])
    def test_no_table_keeps_a_long_word(self, table):
        resources = Resources.load()
        for letter in "абв":
            extract_all(Document(id="d", text=f"Кот видел {letter * 200_000}.", label=Label.CHILDREN),
                        resources)
        texts = key_texts(resources, table)
        assert texts and max(map(len, texts)) <= text_analysis.CHUNK_LIMIT

    def test_each_chunk_and_word_is_resolved_once_per_provider(self):
        resources = counting_resources()
        morphology = resources.morphology
        outcome("Кот видел бармаглота. " + "бармаглота, " * 100, resources)
        assert morphology.analyzed["бармаглота"] == 1
        assert morphology.resolved["бармаглота,"] == morphology.resolved["бармаглота"] == 1
        for text in OTHER_TEXTS + ["Кот видел бармаглота!"]:
            outcome(text, resources)
        assert max(morphology.resolved.values()) == 1
        assert max(morphology.analyzed.values()) == 1
        assert set(morphology.resolved) == set(morphology._table.ids)

    @pytest.mark.parametrize("cap", [0, 3])
    def test_a_full_table_resolves_each_chunk_once_per_call(self, monkeypatch, cap):
        monkeypatch.setattr(text_analysis, "TABLE_CAP", cap)
        text = "Кот видел бармаглота. " + "бармаглота, " * 100 + "ш" * 200 + "."
        resources = counting_resources()
        assert outcome(text, resources) == outcome(text, Resources.load())
        morphology = resources.morphology
        assert len(morphology._table.ids) == cap
        chunks = text.split()
        before = morphology.resolved.copy()
        assert morphology.lemmas(chunks) == Resources.load().morphology.lemmas(chunks)
        resolved = morphology.resolved - before
        assert resolved["бармаглота,"] == resolved["ш" * 200 + "."] == 1
        assert max(resolved.values()) <= 2  # a word in two new chunks

    def test_resources_from_different_frequency_files_share_no_rows(self, tmp_path):
        path = doubled_frequency_file(tmp_path)
        texts = OTHER_TEXTS[:3]
        expected = separate_outcomes(texts, path)
        both = {"bundled": Resources.load(), "doubled": Resources.load({"frequency": path})}
        for i, text in enumerate(texts):
            for key in ("bundled", "doubled", "bundled"):
                assert outcome(text, both[key]) == expected[key][i]
        lexicons = [res.lexicon for res in both.values()]
        assert lexicons[0]._table.ids and lexicons[1]._table.ids
        assert not np.shares_memory(lexicons[0]._table.array, lexicons[1]._table.array)

    @pytest.mark.parametrize("first", ["bundled", "doubled"])
    def test_resources_sharing_a_provider_keep_their_own_lexicon_rows(self, tmp_path, first):
        # the link from a word's chunk row to its lexicon row lives with
        # each Resources' lexicon, so the shared provider's row ids lead
        # each one to its own rows, whichever reads a text first
        path = doubled_frequency_file(tmp_path)
        texts = OTHER_TEXTS[:3]
        expected = separate_outcomes(texts, path)
        bundled = Resources.load()
        both = {"bundled": bundled,
                "doubled": dataclasses.replace(bundled, frequency=load_frequency_dict(path))}
        assert both["doubled"].morphology is bundled.morphology
        order = [first] + [key for key in both if key != first]
        for i, text in enumerate(texts):
            for key in order + order:
                assert outcome(text, both[key]) == expected[key][i]


class TestResources:
    def test_fields_cannot_be_assigned(self, resources):
        for name in ("frequency", "morphology", "lexicon"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(resources, name, None)

    def test_tables_left_out_of_equality_and_repr(self, resources):
        twin = dataclasses.replace(resources)
        assert twin.lexicon is not resources.lexicon
        assert twin == resources
        assert "lexicon=" not in repr(resources)

    def test_heuristic_fallback_answers_only_what_the_dictionary_lacks(self):
        entries = DictionaryMorphology.load(BUNDLED_FILES["morphology"])._entries
        morphology = Resources.load(heuristic_fallback=True).morphology
        heuristic = HeuristicMorphology()
        surfaces = list(entries) + [word for text in OTHER_TEXTS for word in tokenize(text)]
        # and words the dictionary lacks, in each case
        surfaces += ["Быстрота", "радость", "КРАСИВЫЙ", "Зелень", "qwerty"]
        for surface in surfaces + [s.upper() for s in surfaces] + [s.title() for s in surfaces]:
            expected = entries.get(surface.lower()) or heuristic.analyze(surface)
            assert morphology.analyze(surface) == expected, surface

    def test_unknown_resource_key_is_a_config_error(self):
        # a bad key fails like any bad input, with an AgelexError
        with pytest.raises(ConfigError, match="unknown resource 'morphologie'"):
            Resources.load({"morphologie": BUNDLED_FILES["morphology"]})
