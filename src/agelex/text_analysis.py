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
first sight, and gives its row an id in one table (see
MorphologyProvider); a word is the chunk of its one run, so words read
the same table.  analyze() is then one gather of a text's rows and one
sum over each sentence's.  The table keeps at most TABLE_CAP rows, each
for a chunk of at most CHUNK_LIMIT characters.  split_sentences() and
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

# Most keys a per-type table keeps: the chunks of a morphology provider
# and the (lemma, pos) rows of a lexicons.Lexicon.  Past it, new keys
# are resolved on every call and not kept.
TABLE_CAP = 50_000
# Longest chunk or lemma a table keeps; a longer one is resolved on every
# call, so one long line of text cannot fill memory.
CHUNK_LIMIT = 48


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


def table_keeps(table: dict, text: str) -> bool:
    """Whether a per-type table keeps the row of a new key whose text is
    text: while it holds fewer than TABLE_CAP rows and the text is at
    most CHUNK_LIMIT characters long."""
    return len(table) < TABLE_CAP and len(text) <= CHUNK_LIMIT


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
# POS_ORDER and its syllables (else -1 and 0).
WORDS, LENGTH, CHARS, LETTERS, WORD, TERM, UPPER, POS, SYLLABLES = range(9)
# Where a row's entry in the table's list holds its abbreviation key, its
# words' row ids and their lemmas
_ABBREVIATION, _WORD_IDS, _LEMMAS = 2, 3, 4


class MorphologyProvider:
    """Interface for lemma and part-of-speech lookup, and the chunk table
    that analyze() and preprocess() read through it.

    The table gives each chunk it keeps a row id, as lexicons.Lexicon
    does: a dict maps the chunk to its id, one int64 array holds the
    columns of each row, and a list the rest: the chunk, then, for a
    chunk that is one word, the word's lemma (else None), the chunk's
    abbreviation key, for a chunk of two or more words their row ids
    (else None), and the tuple of its words' lemmas, which lemmas()
    reads.  A chunk the table does not keep gets a row for one call
    only, with an id past the kept rows.  A provider's answers must not
    change once it is in use.
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
            ids = list(map(self._ids.__getitem__, chunks))
        except KeyError:
            ids = self._row_ids(chunks).tolist()
        rows = map(self._rows.__getitem__, ids)
        return list(chain.from_iterable(map(itemgetter(_LEMMAS), rows)))

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {}

    @cached_property
    def _array(self) -> np.ndarray:
        # line i holds the columns of row i, for i < len(self._rows)
        return np.zeros((64, 9), np.int64)

    @cached_property
    def _rows(self) -> list[tuple]:
        return []

    def _row_ids(self, chunks: list[str]) -> np.ndarray:
        """The row id of each chunk.  A chunk the table lacks, and each
        word of it, is resolved once per call.  The table keeps its row as
        table_keeps says; any other row lasts until the next call that
        resolves a chunk."""
        ids = self._ids
        try:  # no default to pass while every chunk has a kept row
            return np.fromiter(map(ids.__getitem__, chunks), np.intp, len(chunks))
        except KeyError:
            row_ids = np.fromiter(map(ids.get, chunks, repeat(-1)), np.intp, len(chunks))
        new = (row_ids < 0).nonzero()[0]
        new_chunks = list(map(chunks.__getitem__, new.tolist()))
        del self._rows[len(ids):]
        fresh: dict[str, tuple] = {}  # the rows of this call only
        for chunk in dict.fromkeys(new_chunks):
            if chunk not in ids and chunk not in fresh:
                self._resolve(chunk, fresh)
        local = dict(zip(fresh, count(len(ids))))
        for columns, words, row in fresh.values():
            self._append(columns, [ids[w] if w in ids else local[w] for w in words], row)
        row_ids[new] = [ids[c] if c in ids else local[c] for c in new_chunks]
        return row_ids

    def _resolve(self, chunk: str, fresh: dict[str, tuple]) -> None:
        """Resolve a chunk the table lacks, and each word of it (a run in
        it that is a word) that the table and fresh lack, then keep its
        row as table_keeps says, or else put it in fresh.  A kept chunk's
        words are kept: none is longer, and each was resolved while the
        table had room.  Unknown words get pos=Other with the lowercased
        surface as lemma."""
        words = [run for run in _RUN_RE.findall(chunk) if _is_word(run)]
        for word in words:
            if word != chunk and word not in self._ids and word not in fresh:
                self._resolve(word, fresh)
        # every letter and digit lies in a run, and a hyphen is neither
        columns = [len(words), len(chunk), sum(map(str.isalnum, chunk)),
                   sum(map(str.isalpha, chunk)), -1, chunk.endswith(_TERMINATOR_CHARS),
                   chunk[0].isupper(), -1, 0]
        lemma = None
        if words == [chunk]:
            lemma, pos = self.analyze(chunk) or (chunk.lower(), Pos.OTHER)
            columns[POS], columns[SYLLABLES] = POS_ORDER.index(pos), count_syllables(chunk)
        row = chunk, lemma, _abbreviation_key(chunk)
        if table_keeps(self._ids, chunk):
            self._ids[chunk] = len(self._ids)
            self._append(columns, list(map(self._ids.__getitem__, words)), row)
        else:
            fresh[chunk] = columns, words, row

    def _append(self, columns: list[int], word_ids: list[int], row: tuple) -> None:
        """Give a chunk's row, whose words have row ids word_ids, the
        next id."""
        n = len(self._rows)
        if n == len(self._array):  # only rows for one call outgrow the cap
            grown = np.zeros((2 * n if n >= TABLE_CAP else min(2 * n, TABLE_CAP), 9), np.int64)
            grown[:n] = self._array
            self._array = grown
        if len(word_ids) == 1:
            columns[WORD] = word_ids[0]
        self._array[n] = columns
        # a chunk that is a word holds its own lemma; any other chunk's
        # words have rows already
        lemmas = (row[1],) if row[1] is not None else tuple(self._rows[w][1] for w in word_ids)
        self._rows.append((*row, word_ids if len(word_ids) > 1 else None, lemmas))

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
        return AnalyzedText(empty, empty, np.zeros((0, 9), np.int64), empty, [], 0, 0, 0)
    ids = morphology._row_ids(chunks)
    rows = morphology._array[:, :POS].take(ids, axis=0)  # the word columns are read per type
    words = morphology._words(ids, rows)
    word_ids, counts = distinct(words)
    ends = (rows[:-1, TERM] & rows[1:, UPPER]).nonzero()[0]
    if abbreviations and len(ends):
        keys = map(itemgetter(_ABBREVIATION), map(morphology._rows.__getitem__, ids[ends].tolist()))
        abbreviated = [i for i, key in enumerate(keys) if key in abbreviations]
        if abbreviated:
            ends = np.delete(ends, abbreviated)
    # the tokens, symbols, letters and digits, and letters of each sentence
    sentences = np.add.reduceat(rows[:, :WORD], np.concatenate(([0], ends + 1)), axis=0)
    _, symbol_count, char_count, letter_count = sentences.sum(axis=0).tolist()
    kept = len(morphology._ids)
    return AnalyzedText(
        words=words, word_ids=word_ids, types=morphology._array.take(word_ids, axis=0),
        counts=counts, sentence_symbols=sentences[sentences[:, WORDS] > 0, LENGTH].tolist(),
        char_count=char_count, letter_count=letter_count, symbol_count=symbol_count,
        kept=kept, _table=morphology._rows, _tail=morphology._rows[kept:])
