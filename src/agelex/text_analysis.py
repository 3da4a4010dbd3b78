"""Tokenization, sentence splitting, syllable counting and morphology.

analyze() returns one row per distinct surface (word type), plus a
column of type ids for the tokens and the symbol count of each
sentence; the feature families work from its per-type counts.

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

What a chunk resolves to (its words, letter and character counts and
trailing terminator run, and for a chunk that is one word the word's
lemma, part of speech and syllables) depends on the chunk and the
morphology provider alone.  So each provider resolves a distinct chunk
once, on first sight, and keeps its row in one table keyed by chunk
text; a word is the chunk of its one run, so words read the same
table.  The table keeps at most TABLE_CAP rows, each for a chunk of at
most CHUNK_LIMIT characters.  split_sentences() and tokenize() apply
the same rules to a whole text by regular expression; the library no
longer calls them, nor does the agelex package export them.

Text enters analyze(), tokenize() and preprocess() through
normalize_text(): combining acute and grave accents (stress marks in
Russian) are dropped and the rest is NFC-composed, so a stressed or
decomposed spelling reads like the plain one.

All routines are pure functions of their inputs, so repeated calls on the
same text yield identical results.  The module is Cyrillic-first but every
rule also covers Latin letters, since previews occasionally quote foreign
titles or names.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, compress, count
from operator import itemgetter
from pathlib import Path

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


CYRILLIC_VOWELS = "аеёиоуыэюя"
LATIN_VOWELS = "aeiouy"
_VOWELS = frozenset(CYRILLIC_VOWELS + LATIN_VOWELS)

SENTENCE_TERMINATORS = ".!?…"

# Candidate runs are letters or digits joined by internal hyphens; a run
# only becomes a token if it contains no digits ("A1" yields nothing).
_RUN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)
_TERMINATOR_CHARS = tuple(SENTENCE_TERMINATORS)
_TERMINATOR_RE = re.compile("[" + re.escape(SENTENCE_TERMINATORS) + "]+")
_WORD_AT_END_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*\Z", re.UNICODE)
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


def table_rows(table: dict, keys: list[str], resolve) -> list:
    """The row of each key: read from the table, or resolve(key), once
    per distinct key of the call.  The table keeps a new row as
    table_keeps says."""
    rows = list(map(table.get, keys))
    if None in rows:
        new = {}
        for i, row in enumerate(rows):
            if row is None:
                key = keys[i]
                # resolving one key can fill the table with another
                row = table.get(key) or new.get(key)
                if row is None:
                    row = new[key] = resolve(key)
                    if table_keeps(table, key):
                        table[key] = row
                rows[i] = row
    return rows


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


class MorphologyProvider:
    """Interface for lemma and part-of-speech lookup.

    A provider keeps the row of each chunk it has resolved for analyze()
    and preprocess(), so its answers must not change once it is in use.
    """

    def analyze(self, surface: str) -> tuple[str, Pos] | None:
        """Return (lemma, pos) for the surface form, or None when the
        provider has no analysis.  Must be deterministic, and the lemma
        must not depend on the case of the surface."""
        raise NotImplementedError

    @cached_property
    def _rows(self) -> dict[str, tuple]:
        return {}

    def rows(self, chunks: list[str]) -> list[tuple]:
        """For each chunk of non-whitespace characters, (words, chars,
        letters, end, lemma, pos, syllables): the runs in it that are
        words, in order, the letters and digits and the letters of all
        its runs, the length of the run of sentence terminators it ends
        in (0 if none), then, for a chunk that is one word, the word's
        lemma, part of speech and syllables.  Other chunks have lemma and
        pos None and 0 syllables.  Unknown words get pos=Other with the
        lowercased surface as lemma.

        A word is the chunk of its one run, so it reads its row here too.
        """
        return table_rows(self._rows, chunks, self._resolve)

    def _resolve(self, chunk: str) -> tuple:
        runs = _RUN_RE.findall(chunk)
        if runs != [chunk]:
            parts = self.rows(runs)
            return (tuple(chain.from_iterable(map(itemgetter(0), parts))),
                    sum(map(itemgetter(1), parts)), sum(map(itemgetter(2), parts)),
                    len(chunk) - len(chunk.rstrip(SENTENCE_TERMINATORS)), None, None, 0)
        chars = len(chunk) - chunk.count("-")
        if not _is_word(chunk):
            return ((), chars, sum(map(str.isalpha, chunk)), 0, None, None, 0)
        lemma, pos = self.analyze(chunk) or (chunk.lower(), Pos.OTHER)
        return ((chunk,), chars, chars, 0, lemma, pos, count_syllables(chunk))


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


@dataclass
class AnalyzedText:
    """Tokenized, sentence-split and morphologically annotated text.

    Row i of the type table is the distinct surface surfaces[i], with
    its lemma lemmas[i], part of speech pos[i] and syllables[i], and
    counts[i] is how many tokens have that surface.  Types are numbered
    in order of first appearance.  tokens holds the type id of every
    token in text order, and sentence_symbols the non-whitespace
    character count of each sentence span, punctuation included, for
    each sentence that holds a token.
    """

    tokens: list[int]
    surfaces: list[str]
    lemmas: list[str]
    pos: list[Pos]
    syllables: list[int]
    counts: list[int]
    sentence_symbols: list[int]
    char_count: int
    letter_count: int
    symbol_count: int

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_sentences(self) -> int:
        return len(self.sentence_symbols)


def analyze(text: str, morphology: MorphologyProvider,
            abbreviations: frozenset[str] | None = None) -> AnalyzedText:
    """Run the full pipeline: sentences, tokens, syllables, morphology.

    The text is read through normalize_text() and cut into chunks at
    whitespace.  Each chunk's row, read from MorphologyProvider.rows(),
    gives its word runs, counts and trailing terminator run; each
    distinct word's row gives its lemma, part of speech and syllables.
    Unknown surfaces fall back to pos=Other with the lowercased surface
    as lemma.  Sentences end where split_sentences() ends them.  Sentences
    without tokens are dropped, so every token belongs to exactly one
    sentence, but their symbols still count toward symbol_count.
    """
    chunks = normalize_text(text).split()
    rows = morphology.rows(chunks)
    words_of_chunks = list(map(itemgetter(0), rows))
    words = list(chain.from_iterable(words_of_chunks))
    word_counts = Counter(words)
    surfaces = list(word_counts)
    type_of = dict(zip(surfaces, count()))
    types = morphology.rows(surfaces)
    token_ends = list(accumulate(map(len, words_of_chunks)))
    symbol_ends = list(accumulate(map(len, chunks)))
    sentence_symbols = []
    first_token = first_symbol = 0
    if chunks:
        ends = _sentence_ends(chunks, compress(count(), map(itemgetter(3), rows)), abbreviations)
        for end in ends + [len(chunks) - 1]:
            last_token, last_symbol = token_ends[end], symbol_ends[end]
            if last_token > first_token:
                sentence_symbols.append(last_symbol - first_symbol)
            first_token, first_symbol = last_token, last_symbol
    return AnalyzedText(
        tokens=list(map(type_of.__getitem__, words)), surfaces=surfaces,
        lemmas=list(map(itemgetter(4), types)), pos=list(map(itemgetter(5), types)),
        syllables=list(map(itemgetter(6), types)),
        counts=list(word_counts.values()),
        sentence_symbols=sentence_symbols,
        # every letter and digit of the text lies in a run
        char_count=sum(map(itemgetter(1), rows)),
        letter_count=sum(map(itemgetter(2), rows)),
        symbol_count=symbol_ends[-1] if chunks else 0,
    )


def _sentence_ends(chunks: list[str], candidates: Iterable[int],
                   abbreviations: frozenset[str] | None) -> list[int]:
    """The candidates, indices of chunks that end in a terminator run,
    that end a sentence by the rule of split_sentences(): the last chunk
    and each one followed by a chunk that starts uppercase, unless it ends
    in a single period after an abbreviation."""
    last = len(chunks) - 1
    ends = [i for i in candidates if i == last or chunks[i + 1][0].isupper()]
    if abbreviations:
        longest = max(map(len, abbreviations))
        abbreviated = {chunk for chunk in set(map(chunks.__getitem__, ends))
                       if _after_abbreviation(chunk, abbreviations, longest)}
        ends = [i for i in ends if chunks[i] not in abbreviated]
    return ends


def _after_abbreviation(chunk: str, abbreviations: frozenset[str], longest: int) -> bool:
    """Whether the chunk ends in a single period after a word of the
    abbreviation list.  The word is read at most two characters past the
    longest abbreviation, as split_sentences() reads it, so the cost does
    not grow with the chunk."""
    if not chunk.endswith(".") or chunk.endswith(_TERMINATOR_CHARS, 0, len(chunk) - 1):
        return False
    word = _WORD_AT_END_RE.search(chunk, max(0, len(chunk) - longest - 3), len(chunk) - 1)
    return word is not None and word.group(0).lower() in abbreviations
