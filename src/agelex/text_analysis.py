"""Tokenization, sentence splitting, syllable counting and morphology.

analyze() returns a text's distinct words (types) as their row ids in
the chunk table, each with its token count and its row's integer
columns (length, part of speech, syllables), and the symbol count of
each sentence; the feature families read nothing else per type.

analyze() and vectorizer.preprocess() read a text as its chunks, the
maximal runs of non-whitespace characters (str.split()), because every
rule works inside them:

- A token is a run of letters and digits, maybe joined by hyphens,
  that holds no digit; no run crosses whitespace.
- A sentence ends at a chunk that ends in a run of '.', '!', '?' or
  '…', when it is the last chunk or the next one starts uppercase,
  unless that run is a single period after a word of the abbreviation
  list, which lies in the same chunk.  A terminator inside a chunk
  ("a.B", "!»") ends no sentence.
- A sentence's symbols are the lengths of its chunks.

What a chunk resolves to depends on the chunk and the morphology
provider alone.  So each provider resolves a distinct chunk once, on
first sight, and gives its row an id in its chunk table, a RowTable;
a word is the chunk of its one run, so words read the same table.
analyze() is then one gather of a text's rows and one sum over each
sentence's.  split_sentences() and
tokenize() apply the same rules to a whole text by regular expression;
the library no longer calls them, nor does the agelex package export
them.

Text enters analyze(), tokenize() and preprocess() through
normalize_text(): combining acute and grave accents (stress marks in
Russian) are dropped and the rest is NFC-composed, so a stressed or
decomposed spelling reads like the plain one.

All routines are pure functions of their inputs, so repeated calls on the
same text yield identical results; only the row ids analyze() reports
depend on what the provider read before.  The module is Cyrillic-first but every
rule also covers Latin letters, since previews occasionally quote foreign
titles or names.
"""
from __future__ import annotations

import re
import unicodedata
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import LexiconError, decode_errors_as


class Pos(Enum):
    """Coarse part-of-speech classes used by the feature extractors."""

    NOUN = "NOUN"
    VERB = "VERB"
    ADJ = "ADJ"
    ADV = "ADV"
    PROPN = "PROPN"
    OTHER = "OTHER"

    @classmethod
    def from_tag(cls, tag: str) -> "Pos | None":
        """Map a tag string onto a class, or None when unrecognized."""
        try:
            return cls(tag.strip().upper())
        except ValueError:
            return None


# a part of speech is read by its place in POS_ORDER, as Lexicon.sums
# takes it: hashing an Enum member runs Python code
POS_ORDER = tuple(Pos)

CYRILLIC_VOWELS = "аеёиоуыэюя"
LATIN_VOWELS = "aeiouy"
_VOWELS = frozenset(CYRILLIC_VOWELS + LATIN_VOWELS)

SENTENCE_TERMINATORS = ".!?…"

# Candidate runs are letters or digits joined by internal hyphens; a run
# only becomes a token if it contains no digits ("A1" yields nothing).
_RUN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)
_TERMINATOR_CHARS = tuple(SENTENCE_TERMINATORS)
_TERMINATOR_RE = re.compile("[" + re.escape(SENTENCE_TERMINATORS) + "]+")
_WORD_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*", re.UNICODE)
_WORD_AT_END_RE = re.compile(_WORD_RE.pattern + r"\Z", re.UNICODE)
_SPACE_RE = re.compile(r"\s*")
# first through last non-space character
_TRIMMED_RE = re.compile(r"\S(?:.*\S)?", re.DOTALL)
_ACCENT_RE = re.compile("[\u0300\u0301]")

# Most keys a RowTable keeps
TABLE_CAP = 50_000
# Longest key text a RowTable keeps
CHUNK_LIMIT = 48


class RowTable:
    """A per-type table: a row id and a row of integer columns for each
    key read.  A MorphologyProvider keeps one keyed by chunk, and a
    lexicons.Lexicon one keyed by (lemma, pos), whose text is the lemma.

    ids maps each kept key to its row id, and line i of array holds the
    columns of row i; each user gives the width and dtype.  A new key is
    kept, for good, while fewer than TABLE_CAP keys are kept and its
    text is at most CHUNK_LIMIT characters long, so one long line of
    text cannot fill memory.  Any other key of a call gets an id past
    the kept rows, in tail, and its row lasts until the next call to
    resolve(), which resolves it again.  The array doubles up to
    TABLE_CAP rows, and past that grows only to hold the kept rows and
    one call's.  Row ids follow the order keys are first read in, and
    no output may depend on them.
    """

    def __init__(self, width: int, dtype: type, length: Callable = len):
        self.ids: dict = {}
        self.tail: dict = {}
        self.array = np.zeros((64, width), dtype)
        self._length = length  # of a key's text

    def resolve(self, keys: list, rows: Callable[[list, int], list]) -> np.ndarray:
        """The row id of each of keys.  The keys not kept are resolved as
        one batch: the kept ones first, in the order of keys, then the
        rest; rows(new, start) gives the columns of each, new[i] taking
        row id start + i, when ids and tail already hold every new key."""
        ids, start = self.ids, len(self.ids)
        new = [key for key in dict.fromkeys(keys) if key not in ids]
        kept = [key for key in new if self._length(key) <= CHUNK_LIMIT][:max(TABLE_CAP - start, 0)]
        ids.update(zip(kept, count(start)))
        self.tail = dict(zip([key for key in new if key not in ids], count(len(ids))))
        end = len(ids) + len(self.tail)
        if end > len(self.array):
            grown = np.zeros((max(end, min(2 * len(self.array), TABLE_CAP)), self.array.shape[1]),
                             self.array.dtype)
            grown[:start] = self.array[:start]
            self.array = grown
        if new:
            self.array[start:end] = rows(kept + list(self.tail), start)
        found = np.fromiter(map(ids.get, keys, repeat(-1)), np.intp, len(keys))
        missing = (found < 0).nonzero()[0].tolist()
        found[missing] = [self.tail[keys[i]] for i in missing]
        return found


def normalize_text(text: str) -> str:
    """Drop combining acute and grave accents (U+0301, U+0300) and
    NFC-compose the rest.

    A stress mark or a decomposed letter would otherwise split a word
    ("ма́ма" into "ма" and "ма").  Accents are dropped before composing,
    so "е" with a grave stress mark stays "е" instead of becoming "ѐ",
    and again after it, since composing can leave an accent loose
    (U+0341 is one).  Text that is already NFC and has no such accent,
    as almost all text is, is returned as it is.
    """
    if "\u0301" not in text and "\u0300" not in text and unicodedata.is_normalized("NFC", text):
        return text
    for _ in range(2):
        text = unicodedata.normalize("NFC", _ACCENT_RE.sub("", text))
    return text


def distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a 1-d integer array, in increasing order,
    and how often each occurs: np.unique(values, return_counts=True) in
    fewer NumPy calls."""
    ordered = np.sort(values)
    # where each run of equal values ends
    ends = np.flatnonzero(np.concatenate((ordered[1:] != ordered[:-1], [len(ordered) > 0])))
    return ordered[ends], ends - np.concatenate(([-1], ends[:-1]))


def count_syllables(word: str) -> int:
    """Count vowels in the word, with a floor of one per the convention
    that every pronounceable token carries at least one syllable."""
    return max(sum(map(_VOWELS.__contains__, word.lower())), 1)


def tokenize(text: str) -> list[str]:
    """Extract word tokens in order of appearance.

    A token is a maximal run of letters, possibly with internal hyphens
    ("жил-был" is one token).  Runs containing digits are not tokens, and
    punctuation never is, although both still count toward the character
    totals reported by analyze().  The text is read through
    normalize_text().
    """
    runs = _RUN_RE.findall(normalize_text(text))
    is_word = {run: _is_word(run) for run in set(runs)}
    return list(compress(runs, map(is_word.__getitem__, runs)))


def _is_word(run: str) -> bool:
    # a run holds only letters, digits and hyphens; str.isalpha rejects
    # superscripts and other non-decimal digits that \d misses
    return run.replace("-", "").isalpha()


def split_sentences(text: str, abbreviations: frozenset[str] | None = None) -> list[tuple[int, int]]:
    """Split text into sentence spans, returned as (start, end) character
    offsets with surrounding whitespace trimmed.

    A run of '.', '!', '?' or '…' ends a sentence when followed by
    whitespace and an uppercase letter, or by end of text.  A single
    period directly after a known abbreviation does not split.  Each run
    is judged from the word before it, read at most two characters past
    the longest abbreviation, and the next non-space character, so the
    cost is linear in the length of the text.
    """
    if abbreviations is None:
        abbreviations = frozenset()
    longest = max(map(len, abbreviations), default=0)
    ends = [m.end() for m in _TERMINATOR_RE.finditer(text)
            if _is_boundary(text, m, abbreviations, longest)] + [len(text)]
    trimmed = (_TRIMMED_RE.search(text, start, end) for start, end in zip([0] + ends, ends))
    return [m.span() for m in trimmed if m is not None]


def _is_boundary(text: str, m: re.Match, abbreviations: frozenset[str], longest: int) -> bool:
    if m.group(0) == ".":
        # a word cut by the window's left edge is longer than every
        # abbreviation, since lowercasing never shortens, so it matches none
        word = _WORD_AT_END_RE.search(text, max(0, m.start() - longest - 2), m.start())
        if word is not None and word.group(0).lower() in abbreviations:
            return False
    after = _SPACE_RE.match(text, m.end()).end()
    if after == len(text):
        return True
    # a terminator glued to the next character is not a boundary
    return after > m.end() and text[after].isupper()


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Load the abbreviation list, one token per line, case-insensitive."""
    out = set()
    with decode_errors_as(LexiconError, path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line in lines:
        word = line.strip().lower().rstrip(".")
        if word and not word.startswith("#"):
            out.add(word)
    return frozenset(out)


# The columns of a row of a MorphologyProvider's chunk table: the
# chunk's words, its length, its letters and digits and its letters
# (analyze() sums these four), the row id of its word when it holds
# exactly one (else -1), and whether it ends in a run of sentence
# terminators and whether it starts uppercase (1 or 0); then, for a
# chunk that is one word, the word's part of speech by its place in
# POS_ORDER and its syllables (else -1 and 0); then the id of its
# abbreviation key (0 for none, -1 in a call's row for a key without one).
WORDS, LENGTH, CHARS, LETTERS, WORD, TERM, UPPER, POS, SYLLABLES, ABBREVIATION = range(10)
# Where a row's entry in the table's list holds its words' row ids and lemmas
_WORD_IDS, _LEMMAS = 2, 3


class MorphologyProvider:
    """Interface for lemma and part-of-speech lookup, and the chunk table
    that analyze() and preprocess() read through it.

    The table is a RowTable of the columns above.  A list holds the rest
    of each row, by row id: the chunk, then, for a chunk that is one
    word, the word's lemma (else None), for a chunk of two or more words
    their row ids (else None), and the tuple of its words' lemmas, which
    lemmas() reads.  A kept row's abbreviation key, and each abbreviation
    analyze() is given, gets an id for good.  A provider's answers must
    not change once it is in use.
    """

    def analyze(self, surface: str) -> tuple[str, Pos] | None:
        """Return (lemma, pos) for the surface form, or None when the
        provider has no analysis.  Must be deterministic, and the lemma
        must not depend on the case of the surface."""
        raise NotImplementedError

    def lemmas(self, chunks: list[str]) -> list[str]:
        """The lemma of each word of the chunks, in order.  Unknown words
        get the lowercased surface."""
        try:  # no NumPy call while every chunk has a kept row
            ids = list(map(self._table.ids.__getitem__, chunks))
        except KeyError:
            ids = self._row_ids(chunks).tolist()
        rows = map(self._rows.__getitem__, ids)
        return list(chain.from_iterable(map(itemgetter(_LEMMAS), rows)))

    @cached_property
    def _table(self) -> RowTable:
        return RowTable(10, np.int64)

    @cached_property
    def _key_ids(self) -> dict:
        return {None: 0}

    def _abbreviated(self, abbreviations: frozenset[str]) -> np.ndarray:
        """Whether each abbreviation key id is one of abbreviations, False
        past the end: built, with ids for them, only for a new set."""
        last = self.__dict__.get("_abbreviations", (None,))[0]
        if last is not abbreviations and last != abbreviations:
            ids = self._key_ids
            found = [ids.setdefault(word, len(ids)) for word in abbreviations]
            self._abbreviations = (frozenset(abbreviations), np.isin(np.arange(len(ids) + 1), found))
        return self._abbreviations[1]

    @cached_property
    def _rows(self) -> list[tuple]:
        return []

    def _row_ids(self, chunks: list[str]) -> np.ndarray:
        """The row id of each chunk.  The chunks the table lacks, and
        each word of them (a run in them that is a word), are resolved
        once per call, as one batch."""
        ids = self._table.ids
        try:  # no default to pass while every chunk has a kept row
            return np.fromiter(map(ids.__getitem__, chunks), np.intp, len(chunks))
        except KeyError:
            pass
        # each word goes before every chunk, so it has a row before its
        # chunks do, and a kept chunk's words are kept: none is longer
        words = [run for chunk in dict.fromkeys(chunks) if chunk not in ids
                 for run in _RUN_RE.findall(chunk) if _is_word(run)]
        return self._table.resolve(words + chunks, self._resolve)[len(words):]

    def _resolve(self, chunks: list[str], start: int) -> list[list[int]]:
        """The columns of the row of each new chunk, chunks[i] taking row
        id start + i, whose words come before it.  Their entries replace
        those of the last call's rows in the list.  Unknown words get
        pos=Other with the lowercased surface as lemma."""
        ids, tail, keys = self._table.ids, self._table.tail, self._key_ids
        del self._rows[start:]
        columns = []
        for i, chunk in enumerate(chunks, start):
            words = [run for run in _RUN_RE.findall(chunk) if _is_word(run)]
            key = _abbreviation_key(chunk)
            # every letter and digit lies in a run, and a hyphen is neither
            row = [len(words), len(chunk), sum(map(str.isalnum, chunk)),
                   sum(map(str.isalpha, chunk)), -1, chunk.endswith(_TERMINATOR_CHARS),
                   chunk[0].isupper(), -1, 0,
                   keys.setdefault(key, len(keys)) if i < len(ids) else keys.get(key, -1)]
            if words == [chunk]:
                lemma, pos = self.analyze(chunk) or (chunk.lower(), Pos.OTHER)
                row[POS], row[SYLLABLES] = POS_ORDER.index(pos), count_syllables(chunk)
                word_ids, lemmas = [i], (lemma,)
            else:
                lemma, word_ids = None, [ids[w] if w in ids else tail[w] for w in words]
                lemmas = tuple(self._rows[w][1] for w in word_ids)
            if len(word_ids) == 1:
                row[WORD] = word_ids[0]
            columns.append(row)
            self._rows.append((chunk, lemma, word_ids if len(word_ids) > 1 else None, lemmas))
        return columns

    def _words(self, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The row id of each word, in order, of the chunks whose row ids
        are ids and whose columns are rows."""
        n = rows[:, WORDS]
        words = np.repeat(rows[:, WORD], n)
        multi = (n > 1).nonzero()[0]
        if len(multi):
            for i, end in zip(multi.tolist(), np.cumsum(n)[multi].tolist()):
                words[end - n[i]:end] = self._rows[ids[i]][_WORD_IDS]
        return words


def _abbreviation_key(chunk: str) -> str | None:
    """For a chunk that ends in a single period, the lowercased maximal
    word before it (None if there is none): the sentence does not end
    there when that is an abbreviation.  split_sentences() reads the word
    in a window of the longest abbreviation's length plus two, but a
    window that cuts the word starts at a letter, or at a hyphen just
    before one, so what it reads is longer than every abbreviation (and
    lowercasing never shortens), as the whole word is: the two rules
    agree.  The word is matched on the reversed chunk, from its end, so
    the cost is linear.  None for any other chunk."""
    if not chunk.endswith(".") or chunk.endswith(_TERMINATOR_CHARS, 0, len(chunk) - 1):
        return None
    word = _WORD_RE.match(chunk[-2::-1])
    return word.group(0)[::-1].lower() if word is not None else None


class DictionaryMorphology(MorphologyProvider):
    """Morphology backed by a surface-form dictionary.

    Lookup is case-insensitive.  Unknown surfaces return None, which the
    analyzer turns into pos=Other with the lowercased surface as lemma.
    """

    def __init__(self, entries: dict[str, tuple[str, Pos]]):
        self._entries = entries

    def analyze(self, surface: str) -> tuple[str, Pos] | None:
        return self._entries.get(surface.lower())

    @classmethod
    def load(cls, path: str | Path) -> "DictionaryMorphology":
        """Load a tab-separated file of surface, lemma, pos rows.

        The pos column must be one of NOUN, VERB, ADJ, ADV, PROPN, OTHER.
        The first row for a surface wins; later duplicates are ignored.
        """
        entries: dict[str, tuple[str, Pos]] = {}
        with decode_errors_as(LexiconError, path):
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise LexiconError(f"{path}: row {lineno}: expected 3 tab-separated fields, got {len(parts)}")
            surface, lemma, tag = (p.strip() for p in parts)
            if not surface or not lemma:
                raise LexiconError(f"{path}: row {lineno}: empty surface or lemma")
            pos = Pos.from_tag(tag)
            if pos is None:
                raise LexiconError(f"{path}: row {lineno}: unknown pos tag {tag!r}")
            entries.setdefault(surface.lower(), (lemma.lower(), pos))
        return cls(entries)


# Suffix tables for the heuristic fallback, checked longest-first.
# Adjective endings go before verbs so forms like "синим" do not match
# the verbal "-им" pattern.
_ADJ_SUFFIXES = (
    "ого", "его", "ому", "ему", "ыми", "ими",
    "ый", "ий", "ой", "ая", "яя", "ое", "ее", "ые", "ие",
    "ым", "им", "ых", "их", "ую", "юю",
)
_VERB_SUFFIXES = (
    "ться", "тся", "ешь", "ишь", "ете", "ите",
    "ать", "ять", "еть", "ить", "уть", "ыть",
    "ти", "чь", "ет", "ёт", "ит", "ют", "ят",
)
_NOUN_SUFFIXES = (
    "ость", "есть", "ство", "ние", "нье", "тие",
    "ция", "сия", "тель", "ник", "щик", "изм", "ика",
)
_ADV_SUFFIXES = ("ски",)
_ADV_WORDS = frozenset({
    "быстро", "медленно", "тихо", "громко", "хорошо", "плохо",
    "весело", "вдруг", "здесь", "там", "тут", "сейчас", "потом",
    "очень", "всегда", "никогда", "снова", "рядом", "далеко",
})


class HeuristicMorphology(MorphologyProvider):
    """Suffix-based fallback used when no dictionary is available.

    The lemma is always the lowercased surface.  Part of speech is guessed
    from common endings; title-cased words with no matching ending are
    treated as proper nouns.  Deliberately rough, but deterministic.
    """

    # each table longest suffix first, equal lengths in table order
    _rules = [(pos, tuple(sorted(suffixes, key=len, reverse=True)))
              for pos, suffixes in ((Pos.ADV, _ADV_SUFFIXES), (Pos.ADJ, _ADJ_SUFFIXES),
                                    (Pos.VERB, _VERB_SUFFIXES), (Pos.NOUN, _NOUN_SUFFIXES))]

    def analyze(self, surface: str) -> tuple[str, Pos] | None:
        low = surface.lower()
        if low in _ADV_WORDS:
            return (low, Pos.ADV)
        for pos, suffixes in self._rules:
            for suf in suffixes:
                if len(low) > len(suf) + 1 and low.endswith(suf):
                    return (low, pos)
        if len(surface) > 2 and surface[0].isupper() and surface[1:].islower():
            return (low, Pos.PROPN)
        return (low, Pos.OTHER)


@dataclass(eq=False)
class AnalyzedText:
    """Tokenized, sentence-split and morphologically annotated text;
    analyses compare by identity.

    Type i, of the distinct words in increasing order of row id in the
    provider's chunk table, is row word_ids[i], with the columns types[i]
    and counts[i] tokens.  words holds each token's row id, in text
    order, and sentence_symbols the non-whitespace characters of each
    sentence span that holds a token.  Row ids below kept are the
    table's for good; the others last until its next resolving call, so
    the views (surfaces, lemmas, pos, syllables, tokens), built when
    read, take strings from a copy of those rows made during the call.
    """

    words: np.ndarray
    word_ids: np.ndarray
    types: np.ndarray
    counts: np.ndarray
    sentence_symbols: list[int]
    char_count: int
    letter_count: int
    symbol_count: int
    kept: int = 0
    # the provider's list of rows, and a copy of its entries past kept
    _table: list = field(default_factory=list, repr=False)
    _tail: list = field(default_factory=list, repr=False)

    @property
    def n_tokens(self) -> int:
        return len(self.words)

    @property
    def n_sentences(self) -> int:
        return len(self.sentence_symbols)

    @property
    def surfaces(self) -> list[str]:
        return [self._entry(i)[0] for i in self.word_ids.tolist()]

    @property
    def lemmas(self) -> list[str]:
        return [self._entry(i)[1] for i in self.word_ids.tolist()]

    @property
    def pos(self) -> list[Pos]:
        return list(map(POS_ORDER.__getitem__, self.types[:, POS].tolist()))

    @property
    def syllables(self) -> list[int]:
        return self.types[:, SYLLABLES].tolist()

    @property
    def tokens(self) -> np.ndarray:
        """The type id of every token, in text order."""
        type_of = np.zeros(self.word_ids.max(initial=-1) + 1, np.intp)
        type_of[self.word_ids] = np.arange(len(self.word_ids))
        return type_of.take(self.words)

    def _entry(self, word_id: int) -> tuple:
        return self._table[word_id] if word_id < self.kept else self._tail[word_id - self.kept]


def analyze(text: str, morphology: MorphologyProvider,
            abbreviations: frozenset[str] | None = None) -> AnalyzedText:
    """Run the full pipeline: sentences, tokens, syllables, morphology.

    The text is read through normalize_text() and cut into chunks at
    whitespace.  One gather of the chunks' rows in the morphology
    provider's table, and one sum of them over each sentence, give each
    sentence's tokens and symbols and the text's character counts.  The
    words' distinct row ids are the types, and one gather of their rows
    gives each type's length, part of speech and syllables.  A sentence
    ends where split_sentences() ends it: after a chunk that ends in a
    terminator run and comes before one that starts uppercase, unless
    the chunk's abbreviation key is an abbreviation, and at the last
    chunk.  Sentences without tokens are dropped, so every token belongs
    to exactly one sentence, but their symbols still count toward
    symbol_count.
    """
    chunks = normalize_text(text).split()
    if not chunks:
        empty = np.zeros(0, np.intp)
        return AnalyzedText(empty, empty, np.zeros((0, 10), np.int64), empty, [], 0, 0, 0)
    # the set's abbreviations get their ids before this call's rows
    abbreviated = morphology._abbreviated(abbreviations) if abbreviations else None
    ids = morphology._row_ids(chunks)
    table = morphology._table
    rows = table.array[:, :POS].take(ids, axis=0)  # the word columns are read per type
    words = morphology._words(ids, rows)
    word_ids, counts = distinct(words)
    ends = (rows[:-1, TERM] & rows[1:, UPPER]).nonzero()[0]
    if abbreviated is not None and len(ends):
        ends = ends[~abbreviated.take(table.array[ids[ends], ABBREVIATION], mode="clip")]
    # the tokens, symbols, letters and digits, and letters of each sentence
    sentences = np.add.reduceat(rows[:, :WORD], np.concatenate(([0], ends + 1)), axis=0)
    _, symbol_count, char_count, letter_count = sentences.sum(axis=0).tolist()
    kept = len(table.ids)
    return AnalyzedText(
        words=words, word_ids=word_ids, types=table.array.take(word_ids, axis=0),
        counts=counts, sentence_symbols=sentences[sentences[:, WORDS] > 0, LENGTH].tolist(),
        char_count=char_count, letter_count=letter_count, symbol_count=symbol_count,
        kept=kept, _table=morphology._rows, _tail=morphology._rows[kept:])
