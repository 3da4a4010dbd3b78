#!/usr/bin/env python3
"""Compare two random-forest implementations with Dietterich's 5x2cv
paired t-test over the grid's 18 conditions.

The "old" forest is train_random_forest from another agelex source tree,
for example the last commit with the lock-step forest:

    git archive a7d3af8 src | tar -x -C /tmp/old
    PYTHONPATH=src python scripts/forest_5x2cv.py --old-src /tmp/old/src

Both forests fit the same design matrices: each of 5 repetitions splits
make_corpus(100, 100, seed=7) into two stratified halves, and each half
trains a pipeline per condition that the other half tests.  For each
condition, and for the mean accuracy over all 18, the difference new - old
gives t = p_1^(1) / sqrt(mean of the 5 per-repetition variances), with 5
degrees of freedom (Dietterich, Neural Computation 1998).
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import random
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import agelex.pipeline
from agelex import Corpus, Label, Resources, Split, TrainSettings, grid_conditions, train_pipeline
from agelex.pipeline import CorpusVectors
from agelex.synthetic import make_corpus


def load_old_forest(src: Path):
    """train_random_forest of the agelex package under src, imported as a
    separate package so both versions live in one process."""
    spec = importlib.util.spec_from_file_location(
        "agelex_old", src / "agelex" / "__init__.py", submodule_search_locations=[str(src / "agelex")])
    module = importlib.util.module_from_spec(spec)
    sys.modules["agelex_old"] = module
    spec.loader.exec_module(module)
    return module.train_random_forest


def two_sided_p(t: float) -> float:
    """Two-sided p-value of Student's t with 5 degrees of freedom, in
    closed form: P(|T| <= t) = (2/pi) (a + sin a (cos a + (2/3) cos^3 a)),
    with a = atan(|t| / sqrt(5))."""
    a = math.atan(abs(t) / math.sqrt(5))
    return 1.0 - 2.0 / math.pi * (a + math.sin(a) * (math.cos(a) + 2.0 / 3.0 * math.cos(a) ** 3))


def five_by_two_t(diffs: list[tuple[float, float]]) -> tuple[float, float]:
    """(t, p) from the two fold differences of each of 5 repetitions; t is
    0 with p 1 when every repetition's two differences are equal."""
    variance = statistics.fmean((a - b) ** 2 / 2 for a, b in diffs)
    if variance == 0:
        return 0.0, 1.0
    t = diffs[0][0] / math.sqrt(variance)
    return t, two_sided_p(t)


def halves(corpus: Corpus, rng: random.Random) -> tuple[Corpus, Corpus]:
    """Two corpora over the same documents, each training on one
    stratified half and testing on the other."""
    first = set()
    for label in Label:
        ids = [d.id for d in corpus if d.label is label]
        rng.shuffle(ids)
        first.update(ids[:len(ids) // 2])
    return tuple(Corpus([replace(d, split=Split.TRAIN if (d.id in first) == train_first else Split.TEST)
                         for d in corpus]) for train_first in (True, False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--old-src", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=2026, help="seed of the 5 splits")
    args = parser.parse_args(argv)
    forests = {"old": load_old_forest(args.old_src), "new": agelex.pipeline.train_random_forest}
    resources = Resources.bundled()
    corpus = make_corpus(100, 100, seed=7, resources=resources)
    conditions = grid_conditions()
    rng = random.Random(args.seed)
    # accuracy[name][condition][repetition][fold]
    accuracy = {name: {c: [] for c, _ in conditions} for name in forests}
    for _ in range(5):
        folds = halves(corpus, rng)
        for name in forests:
            for c, _ in conditions:
                accuracy[name][c].append([])
        for fold in folds:
            cache = CorpusVectors(resources)
            test = fold.subset(Split.TEST)
            for name, forest in forests.items():
                agelex.pipeline.train_random_forest = forest
                for c, recipe in conditions:
                    trained = train_pipeline(fold, resources, recipe, "rf", TrainSettings(), cache)
                    accuracy[name][c][-1].append(trained.evaluate(test, resources, cache).accuracy)
    agelex.pipeline.train_random_forest = forests["new"]

    def report(label: str, old, new) -> None:
        diffs = [(n1 - o1, n2 - o2) for (o1, o2), (n1, n2) in zip(old, new)]
        t, p = five_by_two_t(diffs)
        mean_old = statistics.fmean(a for rep in old for a in rep)
        mean_new = statistics.fmean(a for rep in new for a in rep)
        print(f"{label:26s} {mean_old:.4f} {mean_new:.4f} {mean_new - mean_old:+.4f} {t:+7.3f} {p:.3f}")

    print(f"{'condition':26s} {'old':>6s} {'new':>6s} {'diff':>7s} {'t':>7s} {'p':>5s}")
    for c, _ in conditions:
        report(c, accuracy["old"][c], accuracy["new"][c])
    mean = {name: [[statistics.fmean(accuracy[name][c][r][f] for c, _ in conditions) for f in range(2)]
                   for r in range(5)] for name in forests}
    report("mean of 18 conditions", mean["old"], mean["new"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
