"""Loaders for the external lexical resources, and one table over them.

Three resource kinds: a frequency dictionary with ipm / rank / dispersion
/ document-count attributes per (lemma, pos), a sentiment lexicon mapping
lemmas to (polarity, category), and plain word lists such as the top-5000
frequency list or the familiar-words list used by the Dale-Chall style
index.  All loaders validate ranges and report the offending row number.

A Lexicon reads the four word lexicons of one Resources through a table
keyed by (lemma, pos): each key is resolved once, on first sight, into a
LexiconRow.  The table keeps at most text_analysis.TABLE_CAP rows, and
none for a lemma longer than text_analysis.CHUNK_LIMIT characters.  Its
frequency values are exact integers over one power-of-two scale, so a
feature family sums them exactly and divides once.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import LexiconError, decode_errors_as
from .text_analysis import Pos, table_rows

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
        self._by_lemma: dict[str, list[FrequencyRecord]] = {}
        for rec in records:
            key = (rec.lemma, rec.pos)
            if key in self._by_key:
                raise LexiconError(f"duplicate frequency entry for {rec.lemma!r}/{rec.pos.value}")
            self._by_key[key] = rec
            self._by_lemma.setdefault(rec.lemma, []).append(rec)

    @property
    def records(self) -> list[FrequencyRecord]:
        return list(self._by_key.values())

    def lookup(self, lemma: str, pos: Pos) -> FrequencyRecord | None:
        return self._by_key.get((lemma.lower(), pos))

    def lookup_any(self, lemma: str) -> FrequencyStats | None:
        """Average the numeric attributes over every pos entry of the
        lemma; None when the lemma is absent entirely."""
        recs = self._by_lemma.get(lemma.lower())
        if not recs:
            return None
        n = len(recs)
        return FrequencyStats(
            ipm=sum(r.ipm for r in recs) / n,
            r=sum(r.r for r in recs) / n,
            d=sum(r.d for r in recs) / n,
            doc=sum(r.doc for r in recs) / n,
        )


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
    folded into Other.
    """
    with decode_errors_as(LexiconError, path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise LexiconError(f"{path}: empty file")
    header = tuple(h.strip().lower() for h in lines[0].split("\t"))
    if header != FREQUENCY_HEADER:
        raise LexiconError(f"{path}: bad header {header!r}, expected {FREQUENCY_HEADER!r}")
    records = []
    seen: set[tuple[str, Pos]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise LexiconError(f"{path}: row {lineno}: expected 6 fields, got {len(parts)}")
        lemma = parts[0].strip().lower()
        if not lemma:
            raise LexiconError(f"{path}: row {lineno}: empty lemma")
        pos = Pos.from_tag(parts[1]) or Pos.OTHER
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
        key = (lemma, pos)
        if key in seen:
            raise LexiconError(f"{path}: row {lineno}: duplicate entry for {lemma!r}/{pos.value}")
        seen.add(key)
        records.append(FrequencyRecord(lemma, pos, ipm, r, d, doc))
    return FrequencyDictionary(records)


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class SentimentCategory(Enum):
    OPINION = "opinion"
    FEELING = "feeling"
    FACT = "fact"


class SentimentLexicon:
    def __init__(self, entries: dict[str, tuple[Polarity, SentimentCategory]]):
        self._entries = entries

    @property
    def entries(self) -> dict[str, tuple[Polarity, SentimentCategory]]:
        return dict(self._entries)

    def lookup(self, lemma: str) -> tuple[Polarity, SentimentCategory] | None:
        return self._entries.get(lemma.lower())


def load_sentiment_lexicon(path: str | Path) -> SentimentLexicon:
    """Load the sentiment CSV with columns lemma, polarity, category.

    Polarity must be positive/negative and category opinion/feeling/fact;
    anything else, and duplicate lemmas, fail with the row number.
    """
    entries: dict[str, tuple[Polarity, SentimentCategory]] = {}
    with decode_errors_as(LexiconError, path), open(path, encoding="utf-8", newline="") as fh:
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
    return SentimentLexicon(entries)


class WordList:
    """A set of lemmas, optionally with an ipm value per lemma."""

    def __init__(self, ipm: dict[str, float | None]):
        self._ipm = ipm

    def __contains__(self, lemma: str) -> bool:
        return lemma.lower() in self._ipm

    @property
    def lemmas(self) -> list[str]:
        return list(self._ipm)

    def ipm_of(self, lemma: str) -> float | None:
        return self._ipm.get(lemma.lower())


def load_word_list(path: str | Path) -> WordList:
    """Load a word list with one lemma per line, optionally followed by a
    tab and a finite ipm value >= 0.  Lemmas are lowercased; repeats
    collapse."""
    ipm: dict[str, float | None] = {}
    with decode_errors_as(LexiconError, path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
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
    return WordList(ipm)


_POS_ORDER = tuple(Pos)


class LexiconRow(NamedTuple):
    """What the lexicons say about one (lemma, pos).

    top_ipm is the ipm of a top-5000 hit (from the list, else from the
    frequency dictionary) and frequency the (ipm, r, d, doc) of the
    dictionary entry (the exact (lemma, pos) record, else the average
    over the lemma's records), each times Lexicon.scale; either is None
    when there is no such value.
    """

    familiar: bool
    sentiment: tuple[Polarity, SentimentCategory] | None
    top5000: bool
    top_ipm: int | None
    frequency: tuple[int, int, int, int] | None


class Lexicon:
    """The frequency dictionary, sentiment lexicon, top-5000 list and
    familiar list, looked up through one table keyed by (lemma, pos).

    The lexicons must not change once rows have been read.  A missing
    lexicon is an empty one.
    """

    def __init__(self, frequency: FrequencyDictionary | None = None,
                 sentiment: SentimentLexicon | None = None,
                 top5000: WordList | None = None, familiar: WordList | None = None):
        self.frequency = frequency if frequency is not None else FrequencyDictionary([])
        self.sentiment = sentiment if sentiment is not None else SentimentLexicon({})
        self.top5000 = top5000 if top5000 is not None else WordList({})
        self.familiar = familiar if familiar is not None else WordList({})
        self._rows: dict[tuple[str, int], LexiconRow] = {}

    @cached_property
    def scale(self) -> int:
        """The least power of two that makes every ipm, r, d and doc value
        a row can hold an integer: each finite float is an integer over a
        power of two, so this is the largest of those denominators."""
        records = self.frequency.records
        averages = (self.frequency.lookup_any(lemma) for lemma in {rec.lemma for rec in records})
        values = [float(v) for rec in records for v in (rec.ipm, rec.r, rec.d, rec.doc)]
        values += [v for stats in averages for v in (stats.ipm, stats.r, stats.d, stats.doc)]
        values += [v for v in map(self.top5000.ipm_of, self.top5000.lemmas) if v is not None]
        return max((v.as_integer_ratio()[1] for v in values), default=1)

    def rows(self, lemmas: list[str], pos: list[Pos]) -> list[LexiconRow]:
        """The row of each (lemma, pos) pair."""
        # keyed by the pos's place in _POS_ORDER, found by identity: hashing
        # an Enum member runs Python code
        keys = list(zip(lemmas, map(_POS_ORDER.index, pos)))
        return table_rows(self._rows, keys, self._resolve, itemgetter(0))

    def _scaled(self, value: float) -> int:
        numerator, denominator = float(value).as_integer_ratio()
        return numerator * (self.scale // denominator)

    def _resolve(self, key: tuple[str, int]) -> LexiconRow:
        lemma, pos = key[0], _POS_ORDER[key[1]]
        entry = self.frequency.lookup(lemma, pos) or self.frequency.lookup_any(lemma)
        top5000 = lemma in self.top5000
        ipm = self.top5000.ipm_of(lemma) if top5000 else None
        if top5000 and ipm is None and entry is not None:
            ipm = entry.ipm
        return LexiconRow(
            familiar=lemma in self.familiar,
            sentiment=self.sentiment.lookup(lemma),
            top5000=top5000,
            top_ipm=None if ipm is None else self._scaled(ipm),
            frequency=None if entry is None else tuple(
                map(self._scaled, (entry.ipm, entry.r, entry.d, entry.doc))),
        )
