"""Loaders for the external lexical resources, and one table over them.

Three resource kinds: a frequency dictionary with ipm / rank / dispersion
/ document-count attributes per (lemma, pos), a sentiment lexicon that
loads as a dict of lemma -> (polarity, category), and plain word lists,
such as the top-5000 list or the Dale-Chall familiar-words list, that
load as a dict of lemma -> ipm or None.  Each loader lowercases lemmas,
validates ranges and reports the offending row number.

A Lexicon reads the four word lexicons of one Resources through a
text_analysis.RowTable keyed by (lemma, pos): each key is resolved once,
on first sight, into an int32 row, its lemma lowercased to look it up.
A row holds 1, the difficult-word flag, the top-5000 hit, whether the
hit has an ipm, the frequency-entry flag, the sentiment one-hot, then
the hit's ipm and the entry's ipm, r, d and doc.  Each of those five
values is an exact integer over one power-of-two scale, split into as
many 24-bit limbs as the largest such value of the lexicons needs.  A
text's type counts times the rows then give every column sum exactly in
int64 for any text under 2**39 tokens, and the limbs are joined again as
Python integers.  The Lexicon also links each word row of the morphology
provider's chunk table to its row, on first sight, so a text's rows are
one gather by its types' word row ids.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from . import text_analysis
from .errors import ENCODING, LexiconError, decode_errors_as, read_text
from .text_analysis import POS_ORDER, AnalyzedText, Pos, RowTable

FREQUENCY_HEADER = ("lemma", "pos", "ipm", "r", "d", "doc")


@dataclass(frozen=True)
class FrequencyRecord:
    """One row of the frequency dictionary.

    ipm is occurrences per million tokens; r is the number of corpus
    segments (0..100) the lemma appears in; d is Juilland's dispersion
    coefficient (0..100); doc_count is the number of documents.
    """

    lemma: str
    pos: Pos
    ipm: float
    r: int
    d: float
    doc: int


@dataclass(frozen=True)
class FrequencyStats:
    """Attribute averages returned by lookup_any; averaging over pos
    entries turns the integer attributes into floats."""

    ipm: float
    r: float
    d: float
    doc: float


class FrequencyDictionary:
    def __init__(self, records: list[FrequencyRecord]):
        self._by_key: dict[tuple[str, Pos], FrequencyRecord] = {}
        by_lemma: dict[str, list[tuple]] = {}
        for rec in records:
            key = (rec.lemma, rec.pos)
            if key in self._by_key:
                raise LexiconError(f"duplicate frequency entry for {rec.lemma!r}/{rec.pos.value}")
            self._by_key[key] = rec
            by_lemma.setdefault(rec.lemma, []).append((rec.ipm, rec.r, rec.d, rec.doc))
        # each attribute summed over the lemma's entries in order, then
        # divided by their count
        self._averages = {lemma: FrequencyStats(*(sum(column) / len(rows) for column in zip(*rows)))
                          for lemma, rows in by_lemma.items()}

    @property
    def records(self) -> list[FrequencyRecord]:
        return list(self._by_key.values())

    def lookup(self, lemma: str, pos: Pos) -> FrequencyRecord | None:
        return self._by_key.get((lemma.lower(), pos))

    def lookup_any(self, lemma: str) -> FrequencyStats | None:
        """The numeric attributes averaged over every pos entry of the
        lemma; None when the lemma is absent entirely."""
        return self._averages.get(lemma.lower())


def _parse_float(raw: str, what: str, path, lineno: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise LexiconError(f"{path}: row {lineno}: {what} is not a number: {raw!r}")
    if not math.isfinite(value):
        raise LexiconError(f"{path}: row {lineno}: {what} must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, what: str, path, lineno: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise LexiconError(f"{path}: row {lineno}: {what} is not an integer: {raw!r}")


def load_frequency_dict(path: str | Path) -> FrequencyDictionary:
    """Load the tab-separated frequency dictionary.

    The first line must be the header "lemma pos ipm r d doc".  Rows with
    a non-finite ipm or d, ipm < 0, r outside 0..100, d outside 0..100 or
    doc < 0 are rejected with their row number.  Pos tags beyond the six known classes (the
    source dictionary also tags conjunctions, particles and so on) are
    folded into Other, and of a lemma's rows read as Other the first is
    kept, as DictionaryMorphology.load keeps a surface's first row.  A
    lemma's second row with the same tag is rejected.
    """
    lines = read_text(path, LexiconError).splitlines()
    if not lines:
        raise LexiconError(f"{path}: empty file")
    header = tuple(h.strip().lower() for h in lines[0].split("\t"))
    if header != FREQUENCY_HEADER:
        raise LexiconError(f"{path}: bad header {header!r}, expected {FREQUENCY_HEADER!r}")
    records: dict[tuple[str, Pos], FrequencyRecord] = {}
    tags: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise LexiconError(f"{path}: row {lineno}: expected 6 fields, got {len(parts)}")
        lemma = parts[0].strip().lower()
        if not lemma:
            raise LexiconError(f"{path}: row {lineno}: empty lemma")
        tag = parts[1].strip().upper()
        pos = Pos.from_tag(tag) or Pos.OTHER
        ipm = _parse_float(parts[2], "ipm", path, lineno)
        r = _parse_int(parts[3], "r", path, lineno)
        d = _parse_float(parts[4], "d", path, lineno)
        doc = _parse_int(parts[5], "doc", path, lineno)
        if ipm < 0:
            raise LexiconError(f"{path}: row {lineno}: ipm must be >= 0, got {ipm}")
        if not 0 <= r <= 100:
            raise LexiconError(f"{path}: row {lineno}: r must be in 0..100, got {r}")
        if not 0.0 <= d <= 100.0:
            raise LexiconError(f"{path}: row {lineno}: d must be in 0..100, got {d}")
        if doc < 0:
            raise LexiconError(f"{path}: row {lineno}: doc must be >= 0, got {doc}")
        if (lemma, tag) in tags:
            raise LexiconError(f"{path}: row {lineno}: duplicate entry for {lemma!r}/{tag}")
        tags.add((lemma, tag))
        records.setdefault((lemma, pos), FrequencyRecord(lemma, pos, ipm, r, d, doc))
    return FrequencyDictionary(list(records.values()))


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class SentimentCategory(Enum):
    OPINION = "opinion"
    FEELING = "feeling"
    FACT = "fact"


def load_sentiment_lexicon(path: str | Path) -> dict[str, tuple[Polarity, SentimentCategory]]:
    """Load the sentiment CSV with columns lemma, polarity, category as a
    dict of lowercased lemma -> (polarity, category).

    Polarity must be positive/negative and category opinion/feeling/fact;
    anything else, and duplicate lemmas, fail with the row number.
    """
    entries: dict[str, tuple[Polarity, SentimentCategory]] = {}
    with decode_errors_as(LexiconError, path), open(path, encoding=ENCODING, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1 and [c.strip().lower() for c in row[:1]] == ["lemma"]:
                continue
            if len(row) != 3:
                raise LexiconError(f"{path}: row {lineno}: expected 3 columns, got {len(row)}")
            lemma = row[0].strip().lower()
            if not lemma:
                raise LexiconError(f"{path}: row {lineno}: empty lemma")
            try:
                polarity = Polarity(row[1].strip().lower())
            except ValueError:
                raise LexiconError(f"{path}: row {lineno}: unknown polarity {row[1]!r}")
            try:
                category = SentimentCategory(row[2].strip().lower())
            except ValueError:
                raise LexiconError(f"{path}: row {lineno}: unknown category {row[2]!r}")
            if lemma in entries:
                raise LexiconError(f"{path}: row {lineno}: duplicate lemma {lemma!r}")
            entries[lemma] = (polarity, category)
    return entries


def load_word_list(path: str | Path) -> dict[str, float | None]:
    """Load a word list with one lemma per line, optionally followed by a
    tab and a finite ipm value >= 0, as a dict of lowercased lemma -> ipm,
    None where a line gives none; of a lemma's repeats the first wins."""
    ipm: dict[str, float | None] = {}
    for lineno, line in enumerate(read_text(path, LexiconError).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        lemma = parts[0].strip().lower()
        if not lemma:
            raise LexiconError(f"{path}: row {lineno}: empty lemma")
        value: float | None = None
        if len(parts) > 2:
            raise LexiconError(f"{path}: row {lineno}: expected at most 2 fields")
        if len(parts) == 2:
            value = _parse_float(parts[1], "ipm", path, lineno)
            if value < 0:
                raise LexiconError(f"{path}: row {lineno}: ipm must be >= 0, got {value}")
        ipm.setdefault(lemma, value)
    return ipm


_PROPN = POS_ORDER.index(Pos.PROPN)
SENTIMENT_SLOTS = tuple((pol, cat) for pol in (Polarity.NEGATIVE, Polarity.POSITIVE)
                        for cat in (SentimentCategory.OPINION, SentimentCategory.FEELING,
                                    SentimentCategory.FACT))

# The columns of Lexicon.sums, each a sum over tokens: the tokens, the
# difficult words (neither familiar nor proper nouns), the top-5000 hits,
# the hits with an ipm (from the list, else from the frequency entry),
# the tokens with a frequency entry and the six SENTIMENT_SLOTS, then the
# hits' ipm and the entries' ipm, r, d and doc, times Lexicon.scale.
TOKENS, DIFFICULT, TOP5000, TOP_IPM_TOKENS, FREQUENCY_TOKENS = range(5)
SENTIMENT = range(5, 11)
TOP_IPM, IPM, R, D, DOC = range(11, 16)
# a token count below 2**39 times a limb stays below 2**63
LIMB_BITS = 24
# row p selects the types of part of speech p, the last row all types
_ONE_HOT = np.vstack((np.eye(len(POS_ORDER), dtype=np.int64), np.ones(len(POS_ORDER), np.int64)))


class Lexicon:
    """The frequency dictionary, sentiment lexicon, top-5000 list and
    familiar list, looked up through one table keyed by (lemma, pos),
    the pos by its place in Pos.

    The table is a RowTable whose row holds the value of each column of
    sums for one token: the flags, then each scaled value as limbs,
    least significant first, then the key, lemma id x 6 + pos, the lemma
    id being the row id of the lemma's first key here.  An int array maps
    each word row id of one provider's chunk table to the row of its
    (lemma, pos), filled when the word row is first seen, so a Lexicon
    serves the word rows of one provider.  The lexicons must not change
    once rows have been read.
    """

    def __init__(self, frequency: FrequencyDictionary,
                 sentiment: dict[str, tuple[Polarity, SentimentCategory]],
                 top5000: dict[str, float | None], familiar: frozenset[str]):
        self.frequency, self.sentiment = frequency, sentiment
        self.top5000, self.familiar = top5000, familiar
        # entry i is the row id of the key of the kept word row i, or -1
        self._of_word = np.full(64, -1, np.int32)

    @cached_property
    def _scaling(self) -> tuple[int, np.ndarray]:
        """The scale, the least power of two that makes every ipm, r, d
        and doc value a row can hold an integer (each finite float is an
        integer over a power of two, so this is the largest of those
        denominators), and the weight of each limb: as many limbs as the
        largest scaled value needs."""
        records = self.frequency.records
        averages = (self.frequency.lookup_any(lemma) for lemma in {rec.lemma for rec in records})
        values = [float(v) for rec in records for v in (rec.ipm, rec.r, rec.d, rec.doc)]
        values += [v for stats in averages for v in (stats.ipm, stats.r, stats.d, stats.doc)]
        values += [v for v in self.top5000.values() if v is not None]
        ratios = [v.as_integer_ratio() for v in values]
        scale = max((d for _, d in ratios), default=1)
        largest = max((abs(n) * (scale // d) for n, d in ratios), default=0)
        limbs = max(1, -(-largest.bit_length() // LIMB_BITS))
        return scale, np.array([1 << (LIMB_BITS * k) for k in range(limbs)], dtype=object)

    @property
    def scale(self) -> int:
        return self._scaling[0]

    def sums(self, t: AnalyzedText, columns: np.ndarray) -> list[list[int]]:
        """For each part of speech, by its place in Pos, and then for all
        of t's tokens: the sum over those tokens of each column of sums,
        then of each of columns, which holds a line of integers per type
        of t, then the number of distinct lemmas: one int64 product of
        token counts and rows, then one sort of the types' keys."""
        pos, rows = t.types[:, text_analysis.POS], self._rows(t)
        by_pos = _ONE_HOT.take(pos, axis=1) * t.counts
        # NumPy multiplies integers without BLAS, so the product is exact
        sums = by_pos @ np.concatenate((rows[:, :-1], columns), axis=1)
        weights = self._scaling[1]
        end = TOP_IPM + 5 * len(weights)
        values = sums[:, TOP_IPM:end].reshape(len(sums), 5, len(weights)).astype(object) @ weights
        keys = np.sort(rows[:, -1])
        keys = keys[np.concatenate((keys[1:] != keys[:-1], [len(keys) > 0]))]  # distinct
        lemma_ids, pos = np.divmod(keys, len(POS_ORDER))
        lemmas = np.bincount(pos, minlength=len(POS_ORDER) + 1)
        lemmas[-1] = np.count_nonzero(lemma_ids[1:] != lemma_ids[:-1]) + (len(keys) > 0)
        return np.concatenate((sums[:, :TOP_IPM], values, sums[:, end:], lemmas[:, None]),
                              axis=1).tolist()

    @cached_property
    def _table(self) -> RowTable:
        return RowTable(TOP_IPM + 5 * len(self._scaling[1]) + 1, np.int32, lambda key: len(key[0]))

    def _rows(self, t: AnalyzedText) -> np.ndarray:
        """The row of the (lemma, pos) of each type of t, ending in its
        key, one line each.  Once a word row the chunk table keeps has been
        seen, and the table here keeps its key, one gather finds its row."""
        if len(self._of_word) <= t.kept:
            self._of_word = np.concatenate((self._of_word, np.full(t.kept, -1, np.int32)))
        ids = self._of_word.take(t.word_ids, mode="clip")
        ids[t.word_ids.searchsorted(t.kept):] = -1  # rows of t's call alone
        if len(ids) and ids[ids.argmin()] < 0:  # argmin costs less than min
            new = (ids < 0).nonzero()[0]
            lemmas, pos = t.lemmas, t.types[new, text_analysis.POS].tolist()
            found = self._table.resolve([(lemmas[i], p) for i, p in zip(new.tolist(), pos)],
                                        self._new_rows)
            ids[new], words = found, t.word_ids[new]
            linked = (words < t.kept) & (found < len(self._table.ids))
            self._of_word[words[linked]] = found[linked]
        return self._table.array.take(ids, axis=0)

    def _new_rows(self, keys: list[tuple[str, int]], start: int) -> np.ndarray:
        """The row of each new key, keys[i] taking row id start + i; its
        lemma id is that of the lemma's older keys, else its first key's
        row id here.  The kept keys come first, so it is a kept row's id."""
        ids, lemma_ids = self._table.ids, {}
        for i, (lemma, _) in enumerate(keys, start):
            if lemma not in lemma_ids:
                older = [ids[lemma, p] for p in range(len(POS_ORDER))
                         if ids.get((lemma, p), start) < start]
                lemma_ids[lemma] = self._table.array[older[0], -1] // len(POS_ORDER) if older else i
        flags, values = zip(*map(self._entry, keys))
        lemma_keys = [[lemma_ids[lemma] * len(POS_ORDER) + pos] for lemma, pos in keys]
        return np.concatenate((flags, self._limbs(values), lemma_keys), axis=1)

    def _entry(self, key: tuple[str, int]) -> tuple[list, list[float]]:
        """The flags of a key's row, and its five values before scaling."""
        lemma, pos = key[0].lower(), key[1]
        entry = (self.frequency.lookup(lemma, POS_ORDER[pos])
                 or self.frequency.lookup_any(lemma))
        top5000 = lemma in self.top5000
        ipm = self.top5000.get(lemma)
        if top5000 and ipm is None and entry is not None:
            ipm = entry.ipm
        sentiment = self.sentiment.get(lemma)
        values = [ipm or 0.0] + ([entry.ipm, entry.r, entry.d, entry.doc] if entry else [0.0] * 4)
        return ([1, pos != _PROPN and lemma not in self.familiar, top5000, ipm is not None,
                 entry is not None] + [slot == sentiment for slot in SENTIMENT_SLOTS]), values

    def _limbs(self, values: tuple[list[float], ...]) -> np.ndarray:
        """Each of values' lines, each value times the scale as limbs (each
        but the last, which keeps the sign, in 0 .. 2**LIMB_BITS - 1): by
        array shifts within int64, as Python integers past it."""
        scale, weights = self._scaling
        with np.errstate(over="ignore"):  # times a power of two, a float is exact or inf
            scaled = np.ldexp(np.array(values, float), scale.bit_length() - 1)
        fits, shifts = np.abs(scaled) < 2.0 ** 63, range(0, LIMB_BITS * len(weights), LIMB_BITS)
        limbs = np.where(fits, scaled, 0).astype(np.int64)[..., None] >> shifts
        limbs[..., :-1] &= (1 << LIMB_BITS) - 1
        for i, j in zip(*(~fits).nonzero()):
            numerator, denominator = float(values[i][j]).as_integer_ratio()
            big = numerator * (scale // denominator)
            limbs[i, j] = [(big >> s) % 2 ** LIMB_BITS for s in shifts[:-1]] + [big >> shifts[-1]]
        return limbs.reshape(len(values), -1)
