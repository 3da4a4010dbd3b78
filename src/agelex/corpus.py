"""Corpus loading, validation, writing, splitting and summary statistics.

The on-disk format is JSON Lines: one record per line with fields id,
text, label and the optional abstract, age_rating, genre and split.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .errors import CorpusError, decode_errors_as
from .text_analysis import MorphologyProvider, HeuristicMorphology, analyze


class Label(Enum):
    CHILDREN = "children"
    ADULT = "adult"

    @classmethod
    def parse(cls, raw: str) -> "Label":
        try:
            return cls(raw.strip().lower())
        except (ValueError, AttributeError):
            raise CorpusError(f"invalid label {raw!r}: expected 'children' or 'adult'")


class AgeRating(Enum):
    R0 = "0+"
    R6 = "6+"
    R12 = "12+"
    R16 = "16+"
    R18 = "18+"
    UNKNOWN = "unknown"

    @classmethod
    def parse(cls, raw) -> "AgeRating":
        if raw is None or raw == "":
            return cls.UNKNOWN
        try:
            return cls(str(raw).strip())
        except ValueError:
            raise CorpusError(f"invalid age_rating {raw!r}: expected one of 0+, 6+, 12+, 16+, 18+")


class Split(Enum):
    TRAIN = "train"
    TEST = "test"

    @classmethod
    def parse(cls, raw) -> "Split":
        if raw is None or raw == "":
            return cls.TRAIN
        try:
            return cls(str(raw).strip().lower())
        except ValueError:
            raise CorpusError(f"invalid split {raw!r}: expected 'train' or 'test'")


@dataclass(frozen=True)
class Document:
    """One book preview with its label and optional metadata."""

    id: str
    text: str
    label: Label
    abstract: str | None = None
    age_rating: AgeRating = AgeRating.UNKNOWN
    genre: str | None = None
    split: Split = Split.TRAIN

    def __hash__(self) -> int:
        # equal Documents have equal ids and texts, and a str caches its
        # hash, while hashing an Enum field runs Python code
        return hash((self.id, self.text))


@dataclass
class Corpus:
    documents: list[Document] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def subset(self, split: Split) -> list[Document]:
        return [d for d in self.documents if d.split == split]


_KNOWN_FIELDS = {"id", "text", "label", "abstract", "age_rating", "genre", "split"}


def load_corpus(path: str | Path) -> Corpus:
    """Load and validate a JSON Lines corpus.

    Raises CorpusError with the offending line number for malformed JSON,
    missing or empty required fields, unknown labels, and with the
    offending id for duplicates.  Blank lines are skipped.
    """
    docs = []
    seen: set[str] = set()
    with decode_errors_as(CorpusError, path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # the second: nested too deeply
                raise CorpusError(f"{path}: line {lineno}: malformed JSON: {exc}")
            if not isinstance(raw, dict):
                raise CorpusError(f"{path}: line {lineno}: record must be a JSON object")
            try:
                doc = _record_to_document(raw)
            except CorpusError as exc:
                raise CorpusError(f"{path}: line {lineno}: {exc}")
            if doc.id in seen:
                raise CorpusError(f"{path}: line {lineno}: duplicate document id {doc.id!r}")
            seen.add(doc.id)
            docs.append(doc)
    return Corpus(docs)


def _record_to_document(raw: dict) -> Document:
    doc_id = raw.get("id")
    if not isinstance(doc_id, str) or not doc_id.strip():
        raise CorpusError("missing or empty 'id'")
    text = raw.get("text")
    if not isinstance(text, str) or not text.strip():
        raise CorpusError("missing or empty 'text'")
    if "label" not in raw:
        raise CorpusError("missing 'label'")
    unknown = set(raw) - _KNOWN_FIELDS
    if unknown:
        raise CorpusError(f"unknown fields {sorted(unknown)}")
    abstract = raw.get("abstract")
    if abstract is not None and not isinstance(abstract, str):
        raise CorpusError("'abstract' must be a string")
    genre = raw.get("genre")
    if genre is not None and not isinstance(genre, str):
        raise CorpusError("'genre' must be a string")
    return Document(
        id=doc_id,
        text=text,
        label=Label.parse(raw["label"]),
        abstract=abstract or None,
        age_rating=AgeRating.parse(raw.get("age_rating")),
        genre=genre or None,
        split=Split.parse(raw.get("split")),
    )


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write the corpus back to JSON Lines.  Optional fields that are
    absent are omitted, so load(write(c)) reproduces c exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for doc in corpus:
            rec: dict = {"id": doc.id, "text": doc.text, "label": doc.label.value}
            if doc.abstract is not None:
                rec["abstract"] = doc.abstract
            if doc.age_rating is not AgeRating.UNKNOWN:
                rec["age_rating"] = doc.age_rating.value
            if doc.genre is not None:
                rec["genre"] = doc.genre
            rec["split"] = doc.split.value
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def random_split(corpus: Corpus, test_fraction: float, seed: int = 42) -> Corpus:
    """Assign train/test splits at random, stratified by label.

    Returns a new corpus; document order is preserved.  The assignment is
    a pure function of (document ids, test_fraction, seed).
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise CorpusError(f"test_fraction must be in [0, 1], got {test_fraction}")
    rng = random.Random(seed)
    test_ids: set[str] = set()
    for label in Label:
        ids = sorted(d.id for d in corpus if d.label == label)
        rng.shuffle(ids)
        n_test = round(len(ids) * test_fraction)
        test_ids.update(ids[:n_test])
    docs = []
    for doc in corpus:
        split = Split.TEST if doc.id in test_ids else Split.TRAIN
        docs.append(doc if split == doc.split else replace(doc, split=split))
    return Corpus(docs)


@dataclass(frozen=True)
class CellStats:
    """Summary numbers for one (label, split) cell of the corpus."""

    count: int
    avg_symbols: float | None
    avg_tokens: float | None
    avg_sentences: float | None


def corpus_stats(corpus: Corpus,
                 morphology: MorphologyProvider | None = None,
                 abbreviations: frozenset[str] | None = None) -> dict[tuple[Label, Split], CellStats]:
    """Document counts and average symbols/tokens/sentences per preview,
    broken down by label and split.  Empty cells report count 0 with
    None averages."""
    if len(corpus) == 0:
        raise CorpusError("empty corpus")
    if morphology is None:
        morphology = HeuristicMorphology()
    sums: dict[tuple[Label, Split], list[float]] = {
        (lab, sp): [0, 0.0, 0.0, 0.0] for lab in Label for sp in Split
    }
    for doc in corpus:
        t = analyze(doc.text, morphology, abbreviations)
        cell = sums[(doc.label, doc.split)]
        cell[0] += 1
        cell[1] += t.symbol_count
        cell[2] += t.n_tokens
        cell[3] += t.n_sentences
    out = {}
    for key, (n, sym, tok, sen) in sums.items():
        if n == 0:
            out[key] = CellStats(0, None, None, None)
        else:
            out[key] = CellStats(n, sym / n, tok / n, sen / n)
    return out
