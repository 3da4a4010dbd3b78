"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed.  Documents come
from ``agelex.synthetic.make_corpus`` and are stored and read with the
``agelex.corpus`` JSONL functions; the request and batch streams below
cut and join those documents with the standard library only.  Nothing
here runs inside a timed region.

Run as a script, this module writes one workload's input directory::

    python3 perfbench/inputs.py --workload score-long --seed 3 --out DIR

The classify-short and score-long directories also hold the trained
``baseline+all`` artifacts that the workloads load; training them is
fixture building, done here so the measured process never trains.
"""
from __future__ import annotations

import argparse
import math
import random
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Synthetic sentences end in . ! or ? and are joined by one space; the
# generator never emits abbreviations, so this split is exact for them.
_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")

WORKLOADS = ("classify-short", "score-long", "experiment")
RECIPE = "baseline+all"
# The artifacts are the system under test, so they are trained from one
# fixed corpus; the workload seed varies what they are asked to label.
TRAIN_SEED = 7
BATCH_SIZE = 8
MAX_SENTENCES = 8
MAX_REQUEST_TOKENS = 120

# per-class document counts and long-document token range for each size;
# "tiny" keeps the benchmark's own smoke tests fast
SIZES = {
    "full": {"train": 100, "pool": 200, "corpus": 100, "long_tokens": (1000, 20000)},
    "tiny": {"train": 12, "pool": 12, "corpus": 16, "long_tokens": (150, 600)},
}


def import_agelex():
    """Import agelex from this checkout's src/ and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import agelex
    if not Path(agelex.__file__).resolve().is_relative_to(src):
        raise ImportError(f"agelex imported from {agelex.__file__}, not from {src}")
    return agelex


def derived_seeds(seed: int) -> dict[str, int]:
    """Independent seeds for the held-out pool, the experiment corpus and
    the request/batch stream."""
    rng = random.Random(seed)
    return {key: rng.randrange(2 ** 31) for key in ("pool", "corpus", "stream")}


def token_count(text: str) -> int:
    return len(text.split())


def sentence_count(text: str) -> int:
    return len(_SENTENCE_END.split(text))


def classify_requests(pool, seed: int):
    """Endless stream of (Document, model kind) requests.

    Each request is 1-8 consecutive sentences of a held-out pool
    document, trimmed to at most MAX_REQUEST_TOKENS whitespace tokens,
    with the source document's label and age rating and no abstract.
    Each consecutive pair of requests goes to lsvc and rf in a seeded
    order, so the two models get equal shares of every run.
    """
    from agelex.corpus import Document
    rng = random.Random(seed)
    sentences = [_SENTENCE_END.split(doc.text) for doc in pool]
    i = 0
    while True:
        j = rng.randrange(len(pool))
        k = rng.randint(1, MAX_SENTENCES)
        start = rng.randrange(max(1, len(sentences[j]) - k + 1))
        chosen = sentences[j][start:start + k]
        while len(chosen) > 1 and sum(token_count(s) for s in chosen) > MAX_REQUEST_TOKENS:
            chosen.pop()
        if i % 2 == 0:
            pair = ("lsvc", "rf") if rng.random() < 0.5 else ("rf", "lsvc")
        model = pair[i % 2]
        source = pool[j]
        yield (Document(id=f"req{i}", text=" ".join(chosen), label=source.label,
                        age_rating=source.age_rating), model)
        i += 1


def long_batches(pool, seed: int, token_range: tuple[int, int]):
    """Endless stream of BATCH_SIZE-document batches of long previews.

    A preview joins randomly drawn pool texts of one label until it
    reaches its target length; it takes the abstract and age rating of
    its first text.  The targets of a batch are the midpoints of the
    eighths of the log of token_range, and each batch holds as many
    children's as adult previews, so batches cost about the same while
    every batch spans short and long previews.
    """
    from agelex.corpus import Document, Label
    rng = random.Random(seed)
    labels = tuple(Label)
    by_label = {label: [d for d in pool if d.label is label] for label in labels}
    low, high = math.log(token_range[0]), math.log(token_range[1])
    i = 0
    while True:
        targets = [math.exp(low + (q + 0.5) / BATCH_SIZE * (high - low))
                   for q in range(BATCH_SIZE)]
        batch_labels = [labels[q % len(labels)] for q in range(BATCH_SIZE)]
        rng.shuffle(batch_labels)
        batch = []
        for target, label in zip(targets, batch_labels):
            parts = []
            n = 0
            while n < target:
                part = rng.choice(by_label[label])
                parts.append(part)
                n += token_count(part.text)
            batch.append(Document(id=f"long{i}", text=" ".join(p.text for p in parts),
                                  label=label, abstract=parts[0].abstract,
                                  age_rating=parts[0].age_rating))
            i += 1
        yield batch


def prepare(workload: str, seed: int, size: str, out: Path) -> None:
    """Write the input directory of one workload run."""
    import_agelex()
    from agelex.corpus import write_corpus
    from agelex.models import save_model
    from agelex.pipeline import grid_conditions, train_pipeline
    from agelex.resources import Resources
    from agelex.synthetic import make_corpus

    sizes = SIZES[size]
    seeds = derived_seeds(seed)
    resources = Resources.bundled()
    out.mkdir(parents=True, exist_ok=True)
    if workload == "experiment":
        corpus = make_corpus(sizes["corpus"], sizes["corpus"], seed=seeds["corpus"],
                             test_fraction=0.25, resources=resources)
        write_corpus(corpus, out / "corpus.jsonl")
        return
    train = make_corpus(sizes["train"], sizes["train"], seed=TRAIN_SEED,
                        test_fraction=0.25, resources=resources)
    recipe = dict(grid_conditions())[RECIPE]
    for kind in ("lsvc", "rf") if workload == "classify-short" else ("lsvc",):
        save_model(train_pipeline(train, resources, recipe, kind), out / f"model_{kind}.json")
    pool = make_corpus(sizes["pool"], sizes["pool"], seed=seeds["pool"],
                       test_fraction=0.0, resources=resources)
    write_corpus(pool, out / "pool.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one workload's seeded inputs")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=tuple(SIZES))
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    prepare(args.workload, args.seed, args.size, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
