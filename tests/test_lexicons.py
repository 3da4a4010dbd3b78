"""Frequency dictionary, sentiment lexicon and word list loaders."""
import pytest

from agelex.errors import LexiconError
from agelex.lexicons import (FREQUENCY_HEADER, FrequencyRecord, Polarity,
                             SentimentCategory, load_frequency_dict,
                             load_sentiment_lexicon, load_word_list)
from agelex.text_analysis import Pos

HEADER = "\t".join(FREQUENCY_HEADER)


def freq_file(tmp_path, rows):
    p = tmp_path / "freq.tsv"
    p.write_text(HEADER + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return p


class TestFrequencyDictionary:
    def test_lookup_by_lemma_and_pos(self, tmp_path):
        p = freq_file(tmp_path, ["и\tCONJ\t35801.8\t100\t98\t31099"])
        d = load_frequency_dict(p)
        stats = d.lookup_any("и")
        assert stats is not None
        assert stats.ipm == pytest.approx(35801.8)

    def test_bundled_pinned_row(self, resources):
        stats = resources.frequency.lookup_any("и")
        assert stats is not None
        assert stats.ipm == pytest.approx(35801.8)

    def test_unknown_pos_folds_to_other(self, tmp_path):
        p = freq_file(tmp_path, ["и\tCONJ\t100\t50\t50\t10"])
        d = load_frequency_dict(p)
        assert d.lookup("и", Pos.OTHER) is not None

    def test_lookup_absent_lemma_is_none(self, tmp_path):
        d = load_frequency_dict(freq_file(tmp_path, ["кот\tNOUN\t100\t50\t50\t10"]))
        assert d.lookup_any("пёс") is None
        assert d.lookup("пёс", Pos.NOUN) is None

    def test_lookup_any_averages_over_pos(self, tmp_path):
        d = load_frequency_dict(freq_file(tmp_path, [
            "печь\tNOUN\t100\t80\t60\t10",
            "печь\tVERB\t300\t40\t20\t30",
        ]))
        stats = d.lookup_any("печь")
        assert stats.ipm == pytest.approx(200.0)
        assert stats.r == pytest.approx(60.0)
        assert stats.d == pytest.approx(40.0)
        assert stats.doc == pytest.approx(20.0)

    def test_out_of_range_r_rejected_with_row(self, tmp_path):
        p = freq_file(tmp_path, ["кот\tNOUN\t100\t101\t50\t10"])
        with pytest.raises(LexiconError, match="row 2"):
            load_frequency_dict(p)

    def test_out_of_range_d_rejected(self, tmp_path):
        p = freq_file(tmp_path, ["кот\tNOUN\t100\t50\t150\t10"])
        with pytest.raises(LexiconError, match="row 2"):
            load_frequency_dict(p)

    def test_negative_ipm_rejected(self, tmp_path):
        p = freq_file(tmp_path, ["кот\tNOUN\t-1\t50\t50\t10"])
        with pytest.raises(LexiconError, match="ipm"):
            load_frequency_dict(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_ipm_rejected_with_row(self, tmp_path, value):
        p = freq_file(tmp_path, ["кот\tNOUN\t100\t50\t50\t10",
                                 f"пёс\tNOUN\t{value}\t50\t50\t10"])
        with pytest.raises(LexiconError, match="row 3: ipm must be finite"):
            load_frequency_dict(p)

    def test_duplicate_lemma_pos_rejected(self, tmp_path):
        p = freq_file(tmp_path, [
            "кот\tNOUN\t100\t50\t50\t10",
            "кот\tNOUN\t200\t50\t50\t10",
        ])
        with pytest.raises(LexiconError, match="duplicate"):
            load_frequency_dict(p)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "freq.tsv"
        p.write_text("lemma\tpos\tipm\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="header"):
            load_frequency_dict(p)

    def test_loaded_values(self, tmp_path):
        d = load_frequency_dict(freq_file(tmp_path, [
            "Кот\tNOUN\t120.5\t90\t85.2\t500",
            "печь\tVERB\t300\t40\t20\t30",
        ]))
        assert d.records == [FrequencyRecord("кот", Pos.NOUN, 120.5, 90, 85.2, 500),
                             FrequencyRecord("печь", Pos.VERB, 300.0, 40, 20.0, 30)]
        assert d.lookup("КОТ", Pos.NOUN).doc == 500


class TestSentimentLexicon:
    def test_representative_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("ужасный,negative,opinion\n", encoding="utf-8")
        lex = load_sentiment_lexicon(p)
        assert lex.lookup("ужасный") == (Polarity.NEGATIVE, SentimentCategory.OPINION)

    def test_absent_lemma(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("ужасный,negative,opinion\n", encoding="utf-8")
        assert load_sentiment_lexicon(p).lookup("хороший") is None

    def test_unknown_category_rejected_with_row(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,negative,mood\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="row 1"):
            load_sentiment_lexicon(p)

    def test_unknown_polarity_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,neutral,opinion\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="polarity"):
            load_sentiment_lexicon(p)

    def test_duplicate_lemma_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("x,negative,opinion\nx,positive,fact\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="duplicate"):
            load_sentiment_lexicon(p)

    def test_header_row_skipped(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("lemma,polarity,category\nужасный,negative,opinion\n", encoding="utf-8")
        assert len(load_sentiment_lexicon(p).entries) == 1

    def test_loaded_values(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("Ужасный, Negative ,opinion\nдобрый,positive,FEELING\n", encoding="utf-8")
        assert load_sentiment_lexicon(p).entries == {
            "ужасный": (Polarity.NEGATIVE, SentimentCategory.OPINION),
            "добрый": (Polarity.POSITIVE, SentimentCategory.FEELING),
        }


class TestWordList:
    def test_membership_is_case_insensitive(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("Кот\nпёс\n", encoding="utf-8")
        words = load_word_list(p)
        assert "кот" in words and "КОТ" in words and "ёж" not in words

    def test_optional_ipm_column(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("кот\t120.5\nпёс\n", encoding="utf-8")
        words = load_word_list(p)
        assert words.ipm_of("кот") == pytest.approx(120.5)
        assert words.ipm_of("пёс") is None

    def test_three_fields_rejected(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("кот\t1\t2\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="row 1"):
            load_word_list(p)

    def test_negative_ipm_rejected(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("кот\t-5\n", encoding="utf-8")
        with pytest.raises(LexiconError):
            load_word_list(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_ipm_rejected_with_row(self, tmp_path, value):
        p = tmp_path / "w.txt"
        p.write_text(f"кот\t5\nпёс\t{value}\n", encoding="utf-8")
        with pytest.raises(LexiconError, match="row 2: ipm must be finite"):
            load_word_list(p)

    def test_duplicates_collapse(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("кот\nКот\n", encoding="utf-8")
        assert load_word_list(p).lemmas == ["кот"]

    def test_loaded_values(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("# comment\nКот\t120.5\nпёс\nёж\t0\n", encoding="utf-8")
        words = load_word_list(p)
        assert words.lemmas == ["кот", "пёс", "ёж"]
        assert [words.ipm_of(w) for w in words.lemmas] == [120.5, None, 0.0]

    def test_bundled_lists_nonempty(self, resources):
        assert len(resources.top5000.lemmas) > 0
        assert len(resources.familiar.lemmas) > 0
        assert len(resources.stopwords) > 0
