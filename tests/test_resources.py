"""Resources and the per-type tables it keeps: run and chunk tables on
the morphology provider and a (lemma, pos) table on its Lexicon."""
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import agelex.text_analysis as text_analysis
from agelex.resources import BUNDLED_FILES, Resources
from agelex.synthetic import make_corpus

from test_features import TEXTS, outcome

OTHER_TEXTS = [doc.text for doc in make_corpus(3, 3, seed=11)]


def table_sizes(resources: Resources) -> tuple[int, int, int]:
    return (len(resources.morphology._runs), len(resources.morphology._chunks),
            len(resources.lexicon._rows))


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
            assert table_sizes(full) == (cap, cap, cap)
            assert outcome(text, full) == cold
            assert table_sizes(full) == (cap, cap, cap)

    def test_no_table_outgrows_the_cap(self, monkeypatch):
        monkeypatch.setattr(text_analysis, "TABLE_CAP", 25)
        resources = Resources.load(heuristic_fallback=True)
        sizes = []
        for sentence in " ".join(OTHER_TEXTS).split(". "):
            outcome(sentence, resources)
            sizes.append(table_sizes(resources))
        assert max(sizes[0]) < 25  # the tables fill as texts are read
        assert max(max(s) for s in sizes) == 25

    def test_chunk_table_keeps_no_long_chunk(self):
        limit = text_analysis.CHUNK_LIMIT
        long_chunks = ["кот." * limit, "«" + "а" * limit + "»", "!" * (limit + 1)]
        resources = Resources.load()
        outcome(" ".join(long_chunks + ["Кот,", "«Пёс»", "!" * limit]), resources)
        assert set(resources.morphology._chunks) == {"Кот,", "«Пёс»", "!" * limit}
        assert outcome(" ".join(long_chunks), resources) == outcome(" ".join(long_chunks), Resources.load())

    def test_resources_from_different_frequency_files_share_no_rows(self, tmp_path):
        lines = BUNDLED_FILES["frequency"].read_text(encoding="utf-8").splitlines()
        doubled = [lines[0]] + ["\t".join([lemma, pos, str(2 * float(ipm)), r, d, doc])
                                for lemma, pos, ipm, r, d, doc in map(str.split, lines[1:])]
        path = tmp_path / "frequency.tsv"
        path.write_text("\n".join(doubled) + "\n", encoding="utf-8")
        texts = OTHER_TEXTS[:3]
        expected = {key: [outcome(text, Resources.load(paths)) for text in texts]
                    for key, paths in (("bundled", None), ("doubled", {"frequency": path}))}
        assert expected["bundled"] != expected["doubled"]
        both = {"bundled": Resources.load(), "doubled": Resources.load({"frequency": path})}
        for i, text in enumerate(texts):
            for key in ("bundled", "doubled", "bundled"):
                assert outcome(text, both[key]) == expected[key][i]
        rows = [set(map(id, res.lexicon._rows.values())) for res in both.values()]
        assert rows[0] and rows[1] and not rows[0] & rows[1]


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
