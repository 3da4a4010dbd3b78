"""Seeded generator of labeled demo corpora.

Children's documents get short sentences built mostly from the bundled
top-5000 vocabulary, friendlier age ratings and a positive sentiment
tilt; adult documents get long sentences, a heavier share of rare
polysyllabic words, stricter ratings and a negative tilt.  The two
vocabulary mixtures deliberately overlap document by document, so a pure
bag-of-words model is good but beatable: the corpus rewards adding the
feature families on top of the baseline.

Generate a corpus from the command line with::

    python3 -m agelex.synthetic --out corpus.jsonl --seed 7
"""
from __future__ import annotations

import argparse
from dataclasses import replace

import numpy as np

from .corpus import AgeRating, Corpus, Document, Label, Split, write_corpus
from .resources import Resources
from .text_analysis import Pos

_NAMES = ("Петя", "Маша", "Ваня", "Аня")
_CHILD_GENRES = ("сказка", "повесть", "рассказ")
_ADULT_GENRES = ("роман", "проза", "драма")

_CHILD_RATINGS = (("0+", 0.30), ("6+", 0.35), ("12+", 0.25), ("16+", 0.08), ("18+", 0.02))
_ADULT_RATINGS = (("0+", 0.00), ("6+", 0.02), ("12+", 0.10), ("16+", 0.50), ("18+", 0.38))

_POS_WEIGHTS = ((Pos.NOUN, 0.45), (Pos.VERB, 0.30), (Pos.ADJ, 0.15), (Pos.ADV, 0.10))


class _Pools:
    """Word pools derived from the bundled lexicons: lemmas in the
    top-5000 list form the simple pool, the rest the hard pool."""

    def __init__(self, resources: Resources):
        self.simple: dict[Pos, list[str]] = {pos: [] for pos, _ in _POS_WEIGHTS}
        self.hard: dict[Pos, list[str]] = {pos: [] for pos, _ in _POS_WEIGHTS}
        for rec in sorted(resources.frequency.records, key=lambda r: r.lemma):
            if rec.pos not in self.simple:
                continue
            bucket = self.simple if rec.lemma in resources.top5000 else self.hard
            bucket[rec.pos].append(rec.lemma)
        entries = sorted(resources.sentiment.entries.items())
        self.positive = [lemma for lemma, (pol, _cat) in entries if pol.value == "positive"]
        self.negative = [lemma for lemma, (pol, _cat) in entries if pol.value == "negative"]
        self.stopwords = sorted(resources.stopwords)


def _pick(rng: np.random.Generator, items: list[str]) -> str:
    return items[int(rng.integers(len(items)))]


def _weighted(rng: np.random.Generator, table: tuple):
    """The first key of the (key, weight) table whose cumulative weight
    exceeds one uniform draw, else the last key."""
    u = rng.random()
    acc = 0.0
    for key, weight in table:
        acc += weight
        if u < acc:
            return key
    return table[-1][0]


def _sentence(rng: np.random.Generator, pools: _Pools, n_words: int,
              p_simple: float, label: Label) -> str:
    # insertions are per word, not per sentence, so classes with very
    # different sentence counts still get comparable token mixes and the
    # bag-of-words model cannot read sentence structure off token counts
    positive_share = 0.72 if label is Label.CHILDREN else 0.28
    words: list[str] = []
    for _ in range(n_words):
        u = rng.random()
        if u < 0.015:
            words.append(_pick(rng, list(_NAMES)))
        elif u < 0.035:
            pool = pools.positive if rng.random() < positive_share else pools.negative
            words.append(_pick(rng, pool))
        elif u < 0.185:
            words.append(_pick(rng, pools.stopwords))
        else:
            pool = pools.simple if rng.random() < p_simple else pools.hard
            words.append(_pick(rng, pool[_weighted(rng, _POS_WEIGHTS)]))
    text = " ".join(words)
    text = text[0].upper() + text[1:]
    u = rng.random()
    terminator = "." if u < 0.85 else ("!" if u < 0.95 else "?")
    return text + terminator


def _paragraph(rng: np.random.Generator, pools: _Pools, label: Label,
               p_simple: float, mean_len: float, target_tokens: int) -> str:
    sentences = []
    total = 0
    while total < target_tokens:
        n_words = int(np.clip(round(rng.normal(mean_len, 2.0)), 3, 30))
        sentences.append(_sentence(rng, pools, n_words, p_simple, label))
        total += n_words
    return " ".join(sentences)


def _document(rng: np.random.Generator, pools: _Pools, label: Label, doc_id: str) -> Document:
    if label is Label.CHILDREN:
        p_simple = float(np.clip(rng.normal(0.72, 0.10), 0.45, 0.95))
        mean_len = float(np.clip(rng.normal(6.0, 1.3), 3.5, 9.5))
        genres, ratings = _CHILD_GENRES, _CHILD_RATINGS
    else:
        p_simple = float(np.clip(rng.normal(0.50, 0.10), 0.20, 0.80))
        mean_len = float(np.clip(rng.normal(16.0, 3.0), 10.0, 24.0))
        genres, ratings = _ADULT_GENRES, _ADULT_RATINGS
    target = int(rng.integers(240, 400))
    text = _paragraph(rng, pools, label, p_simple, mean_len, target)
    abstract = _paragraph(rng, pools, label, p_simple, mean_len, int(rng.integers(20, 40)))
    return Document(
        id=doc_id, text=text, label=label, abstract=abstract,
        age_rating=AgeRating.parse(_weighted(rng, ratings)), genre=_pick(rng, list(genres)),
    )


def make_corpus(n_children: int = 200, n_adult: int = 200, seed: int = 7,
                test_fraction: float = 0.25,
                resources: Resources | None = None) -> Corpus:
    """Generate a labeled corpus with train/test splits assigned per
    class.  Pure function of the arguments and the bundled lexicons."""
    resources = resources or Resources.bundled()
    pools = _Pools(resources)
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_children):
        docs.append(_document(rng, pools, Label.CHILDREN, f"c{i:04d}"))
    for i in range(n_adult):
        docs.append(_document(rng, pools, Label.ADULT, f"a{i:04d}"))
    split_rng = np.random.default_rng(seed + 1)
    with_splits = []
    for group_size, offset in ((n_children, 0), (n_adult, n_children)):
        order = split_rng.permutation(group_size)
        n_test = round(group_size * test_fraction)
        test_local = set(order[:n_test].tolist())
        for local, doc in enumerate(docs[offset:offset + group_size]):
            split = Split.TEST if local in test_local else Split.TRAIN
            with_splits.append(replace(doc, split=split))
    return Corpus(with_splits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="generate a synthetic labeled corpus")
    parser.add_argument("--out", required=True, help="output JSONL path")
    parser.add_argument("--children", type=int, default=200)
    parser.add_argument("--adult", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--test-fraction", type=float, default=0.25)
    args = parser.parse_args(argv)
    corpus = make_corpus(args.children, args.adult, args.seed, args.test_fraction)
    write_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} documents to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
