"""Tokenization, sentence splitting, syllable counting and morphology.

All routines are pure functions of their inputs, so repeated calls on the
same text yield identical results.  The module is Cyrillic-first but every
rule also covers Latin letters, since previews occasionally quote foreign
titles or names.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import LexiconError


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
_WORD_RE = re.compile(r"[^\W\d_]+(?:-[^\W\d_]+)*", re.UNICODE)
_TERMINATOR_RE = re.compile("[" + re.escape(SENTENCE_TERMINATORS) + "]+")
_WORD_AT_END_RE = re.compile(_WORD_RE.pattern + r"\Z", re.UNICODE)
_SPACE_RE = re.compile(r"\s*")


def count_syllables(word: str) -> int:
    """Count vowels in the word, with a floor of one per the convention
    that every pronounceable token carries at least one syllable."""
    n = sum(1 for ch in word.lower() if ch in _VOWELS)
    return max(n, 1)


def tokenize(text: str) -> list[str]:
    """Extract word tokens in order of appearance.

    A token is a maximal run of letters, possibly with internal hyphens
    ("жил-был" is one token).  Runs containing digits are not tokens, and
    punctuation never is, although both still count toward the character
    totals reported by analyze().
    """
    return [m.group(0) for m in _iter_token_matches(text)]


def _iter_token_matches(text: str):
    for m in _RUN_RE.finditer(text):
        # \d misses superscripts and other non-decimal digit characters,
        # so an explicit alphabetic check backs up the regex
        if _WORD_RE.fullmatch(m.group(0)) and m.group(0).replace("-", "").isalpha():
            yield m


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
    spans = (_trim(text, start, end) for start, end in zip([0] + ends, ends))
    return [span for span in spans if span is not None]


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


def _trim(text: str, start: int, end: int) -> tuple[int, int] | None:
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    if start == end:
        return None
    return (start, end)


def load_abbreviations(path: str | Path) -> frozenset[str]:
    """Load the abbreviation list, one token per line, case-insensitive."""
    out = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.strip().lower().rstrip(".")
        if word and not word.startswith("#"):
            out.add(word)
    return frozenset(out)


class MorphologyProvider:
    """Interface for lemma and part-of-speech lookup."""

    def analyze(self, surface: str) -> tuple[str, Pos] | None:
        """Return (lemma, pos) for the surface form, or None when the
        provider has no analysis.  Must be deterministic."""
        raise NotImplementedError


class DictionaryMorphology(MorphologyProvider):
    """Morphology backed by a surface-form dictionary.

    Lookup is case-insensitive.  Unknown surfaces return None, which the
    analyzer turns into pos=Other with the lowercased surface as lemma.
    """

    def __init__(self, entries: dict[str, tuple[str, Pos]]):
        self._entries = entries

    def analyze(self, surface: str) -> tuple[str, Pos] | None:
        return self._entries.get(surface.lower())

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def load(cls, path: str | Path) -> "DictionaryMorphology":
        """Load a tab-separated file of surface, lemma, pos rows.

        The pos column must be one of NOUN, VERB, ADJ, ADV, PROPN, OTHER.
        The first row for a surface wins; later duplicates are ignored.
        """
        entries: dict[str, tuple[str, Pos]] = {}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
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

    _rules = [
        (Pos.ADV, _ADV_SUFFIXES),
        (Pos.ADJ, _ADJ_SUFFIXES),
        (Pos.VERB, _VERB_SUFFIXES),
        (Pos.NOUN, _NOUN_SUFFIXES),
    ]

    def analyze(self, surface: str) -> tuple[str, Pos] | None:
        low = surface.lower()
        if low in _ADV_WORDS:
            return (low, Pos.ADV)
        for pos, suffixes in self._rules:
            for suf in sorted(suffixes, key=len, reverse=True):
                if len(low) > len(suf) + 1 and low.endswith(suf):
                    return (low, pos)
        if len(surface) > 2 and surface[0].isupper() and surface[1:].islower():
            return (low, Pos.PROPN)
        return (low, Pos.OTHER)


@dataclass(frozen=True)
class Token:
    surface: str
    lemma: str
    pos: Pos
    syllables: int
    start: int
    end: int


@dataclass
class AnalyzedText:
    """Tokenized, sentence-split and morphologically annotated text.

    sentences holds (first_token, one_past_last_token) index ranges into
    tokens; sentence_symbols holds the non-whitespace character count of
    each sentence span, punctuation included.
    """

    text: str
    tokens: list[Token]
    sentences: list[tuple[int, int]]
    sentence_symbols: list[int]
    char_count: int
    letter_count: int
    symbol_count: int

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)


def analyze(text: str, morphology: MorphologyProvider,
            abbreviations: frozenset[str] | None = None) -> AnalyzedText:
    """Run the full pipeline: sentences, tokens, syllables, morphology.

    Unknown surfaces fall back to pos=Other with the lowercased surface
    as lemma.  Sentence spans that contain no tokens are dropped, so every
    token belongs to exactly one sentence.
    """
    matches = list(_iter_token_matches(text))
    tokens = []
    for m in matches:
        surface = m.group(0)
        result = morphology.analyze(surface)
        if result is None:
            lemma, pos = surface.lower(), Pos.OTHER
        else:
            lemma, pos = result
        tokens.append(Token(surface=surface, lemma=lemma, pos=pos,
                            syllables=count_syllables(surface),
                            start=m.start(), end=m.end()))

    spans = split_sentences(text, abbreviations)
    sentences = []
    sentence_symbols = []
    tok_i = 0
    for start, end in spans:
        first = tok_i
        while tok_i < len(tokens) and tokens[tok_i].start < end:
            tok_i += 1
        if tok_i > first:
            sentences.append((first, tok_i))
            sentence_symbols.append(sum(1 for ch in text[start:end] if not ch.isspace()))

    return AnalyzedText(
        text=text,
        tokens=tokens,
        sentences=sentences,
        sentence_symbols=sentence_symbols,
        char_count=sum(1 for ch in text if ch.isalnum()),
        letter_count=sum(1 for ch in text if ch.isalpha()),
        symbol_count=sum(1 for ch in text if not ch.isspace()),
    )
