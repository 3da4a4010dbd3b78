"""Release gate: one test per numbered package guarantee.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Criterion 8 needs external data and is skipped unless the
AGELEX_PUBLIC_CORPUS environment variable points to a labeled JSONL
corpus.
"""
import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from agelex.analysis import informativeness
from agelex.corpus import Document, Label, Split, corpus_stats, load_corpus
from agelex.features import (ReadabilityCoefficients, automated_readability,
                             coleman_liau, dale_chall, extract_all, flesch_kincaid,
                             smog_index)
from agelex.models import train_linear_svc, train_random_forest
from agelex.pipeline import TrainSettings, grid_conditions, run_grid
from agelex.resources import GRADE_COEFFICIENTS_FILE
from agelex.synthetic import make_corpus
from agelex.vectorizer import fit_svd, fit_tfidf

from oracles import by_family, gini_impurity

# ---------------------------------------------------------------------------
# criterion 1 oracle: (inputs..., expected) evaluated by hand from the
# published coefficient triples and frozen.  The first row of each list is
# the documented worked example for that index.

FK_CASES = [
    (10, 1.5, 69.78500000000001),
    (5, 1.0, 117.16000000000003),
    (8.2, 1.3, 88.53200000000001),
    (12, 2.0, 25.455000000000013),
    (20, 1.8, 34.255000000000024),
    (6.5, 1.1, 107.17750000000001),
    (15, 2.5, -19.889999999999986),
    (9, 1.45, 75.03000000000003),
    (25, 3.0, -72.33999999999997),
    (4, 1.0, 118.17500000000001),
    (11.7, 1.62, 57.90750000000003),
    (30, 2.2, -9.734999999999985),
    (7.25, 1.9, 38.73625000000004),
    (18.4, 1.05, 99.32900000000002),
    (13.9, 2.75, -39.92349999999996),
    (3.5, 1.25, 97.5325),
    (22.1, 1.33, 71.88550000000001),
    (16.8, 2.05, 16.353000000000037),
    (10.5, 1.5, 69.27750000000002),
    (28, 1.95, 13.445000000000022),
]

CL_CASES = [
    (500, 5, 12.119999999999997),
    (450, 10, 7.7),
    (400, 20, 1.799999999999999),
    (520, 4, 13.592),
    (380, 25, -0.8560000000000025),
    (600, 2, 18.888),
    (470, 8, 9.467999999999998),
    (430, 15, 5.043999999999999),
    (550, 6, 14.763999999999996),
    (410, 18, 2.9800000000000004),
    (490, 7, 10.939999999999998),
    (360, 30, -3.5120000000000005),
    (505, 5.5, 12.265999999999998),
    (445, 12, 6.814),
    (530, 3, 14.475999999999997),
    (395, 22, 0.9139999999999988),
    (480, 9, 9.76),
    (420, 16, 4.1599999999999975),
    (575, 2.5, 17.270000000000003),
    (465, 11, 8.285999999999998),
]

ARI_CASES = [
    (5, 10, 7.120000000000001),
    (4.2, 6, 1.3520000000000003),
    (6.1, 18, 16.301),
    (5.5, 12, 10.475000000000001),
    (3.8, 5, -1.032),
    (7.0, 25, 24.04),
    (4.9, 9, 6.149000000000001),
    (6.5, 20, 19.185),
    (5.2, 11, 8.562000000000001),
    (4.5, 7, 3.2650000000000006),
    (6.8, 22, 21.598),
    (3.5, 4, -2.9450000000000003),
    (5.9, 15, 13.859000000000002),
    (7.3, 28, 26.952999999999996),
    (4.0, 6.5, 0.6600000000000001),
    (6.3, 19, 17.743),
    (5.05, 10.5, 7.605499999999999),
    (4.75, 8, 4.942499999999999),
    (6.95, 24, 23.304499999999997),
    (5.65, 14, 12.181500000000003),
]

SMOG_CASES = [
    (30, 30, 8.841846274778883),
    (10, 20, 7.168621630094336),
    (50, 25, 11.20814326018867),
    (5, 10, 7.168621630094336),
    (40, 30, 9.725611199111238),
    (12, 8, 10.125756701596842),
    (60, 40, 10.125756701596842),
    (3, 30, 4.935628992294339),
    (45, 15, 13.023866798666859),
    (20, 20, 8.841846274778883),
    (8, 16, 7.168621630094336),
    (70, 35, 11.20814326018867),
    (25, 50, 7.168621630094336),
    (15, 12, 9.516144504307135),
    (33, 11, 13.023866798666859),
    (55, 44, 9.516144504307135),
    (6, 24, 5.985473137389441),
    (90, 45, 11.20814326018867),
    (28, 7, 14.554592549557764),
    (100, 50, 11.20814326018867),
]

DC_CASES = [
    (0.1, 10, 2.075),
    (0.05, 6, 1.0871),
    (0.3, 18, 5.6298),
    (0.2, 12, 3.7532000000000005),
    (0.0, 5, 0.248),
    (0.5, 25, 9.135),
    (0.15, 9, 2.8149),
    (0.4, 20, 7.308000000000001),
    (0.25, 11, 4.4931),
    (0.08, 7, 1.6104),
    (0.35, 22, 6.6177),
    (0.02, 4, 0.5142),
    (0.45, 15, 7.8495),
    (0.6, 28, 10.8628),
    (0.12, 6.5, 2.2172),
    (0.33, 19, 6.1531),
    (0.18, 10.5, 3.363),
    (0.22, 8, 3.8706),
    (0.55, 24, 9.874900000000002),
    (0.28, 14, 5.115600000000001),
]


def _random_texts(n: int, rng) -> list[str]:
    """Deterministic nonsense Russian: every sentence starts uppercase and
    ends with a period, so concatenating a text with itself exactly doubles
    every count the readability indices consume."""
    consonants = "бвгджзклмнпрстфхцчшщ"
    vowels = "аеиоуыэюя"
    texts = []
    for _ in range(n):
        sentences = []
        for _ in range(int(rng.integers(2, 6))):
            words = []
            for _ in range(int(rng.integers(3, 9))):
                syllables = int(rng.integers(1, 5))
                words.append("".join(
                    consonants[int(rng.integers(0, len(consonants)))]
                    + vowels[int(rng.integers(0, len(vowels)))]
                    for _ in range(syllables)))
            words[0] = words[0].capitalize()
            sentences.append(" ".join(words) + ".")
        texts.append(" ".join(sentences))
    return texts


def test_criterion_01_readability_formula_suite(resources):
    started = time.perf_counter()
    for asl, asw, expected in FK_CASES:
        assert abs(flesch_kincaid(asl, asw) - expected) <= 1e-9
    for letters, sentences, expected in CL_CASES:
        assert abs(coleman_liau(letters, sentences) - expected) <= 1e-9
    for chars, words, expected in ARI_CASES:
        assert abs(automated_readability(chars, words) - expected) <= 1e-9
    for poly, sentences, expected in SMOG_CASES:
        assert abs(smog_index(poly, sentences) - expected) <= 1e-9
    for share, words, expected in DC_CASES:
        assert abs(dale_chall(share, words) - expected) <= 1e-9

    for text in _random_texts(50, np.random.default_rng(1)):
        once = Document(id="once", text=text, label=Label.CHILDREN)
        twice = Document(id="twice", text=text + " " + text, label=Label.CHILDREN)
        single = by_family(extract_all(once, resources))["readability"]
        doubled = by_family(extract_all(twice, resources))["readability"]
        for a, b in zip(single.values(), doubled.values()):
            assert abs(a - b) <= 1e-9
    assert time.perf_counter() - started < 1.0


def _ks_statistic(a, b) -> float:
    """Two-sample KS from the definition: the widest ECDF gap over every
    observed value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    best = 0.0
    for v in np.concatenate([a, b]):
        gap = abs(np.sum(a <= v) / a.size - np.sum(b <= v) / b.size)
        best = max(best, gap)
    return float(best)


def test_criterion_02_informativeness_oracle():
    started = time.perf_counter()
    same = [1.0, 2.0, 5.0, 5.5]
    assert informativeness(same, same, n_intervals=1000) == 0.0
    assert informativeness([0.0, 0.2, 0.9], [3.0, 3.3, 4.1], n_intervals=1000) == 1.0
    rng = np.random.default_rng(20)
    for _ in range(50):
        a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=100)
        b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.0), size=100)
        ours = informativeness(a, b, n_intervals=1000)
        assert abs(ours - _ks_statistic(a, b)) <= 0.02
    assert time.perf_counter() - started < 5.0


def test_criterion_03_svd_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(20):
        scales = rng.uniform(0.2, 3.0, size=60)
        X = rng.normal(size=(200, 60)) * scales
        model = fit_svd(X, 0.95)

        centered = X - X.mean(axis=0)
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        ratios = np.cumsum(singular ** 2) / np.sum(singular ** 2)
        minimal_k = int(np.searchsorted(ratios, 0.95 - 1e-12) + 1)

        assert model.retained >= 0.95 - 1e-12
        assert model.k == minimal_k
        if model.k > 1:
            assert ratios[model.k - 2] < 0.95

        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(model.k))) <= 1e-8

        ours = model.transform(X)
        oracle = centered @ vt[: model.k].T
        signs = np.sign(np.sum(ours * oracle, axis=0))
        assert np.max(np.abs(ours - oracle * signs)) <= 1e-6
    assert time.perf_counter() - started < 10.0


def test_criterion_04_tfidf_fixture_and_norms():
    # three fragments; totals a=4 b=3 c=1, df a=3 b=2 c=1, so with N=3:
    # idf_a = ln(4/4)+1, idf_b = ln(4/3)+1, idf_c = ln(4/2)+1
    d1, d2, d3 = ["a", "a", "b"], ["a", "c"], ["a", "b", "b"]
    model = fit_tfidf([d1, d2, d3])
    assert model.vocabulary == ("a", "b", "c")
    assert abs(model.idf[0] - 1.0) <= 1e-12
    assert abs(model.idf[1] - 1.2876820724517808) <= 1e-12
    assert abs(model.idf[2] - 1.6931471805599454) <= 1e-12

    rows = model.transform_many([d1, d2, d3])
    expected = np.array([
        [0.8408019731721111, 0.5413428136679054, 0.0],
        [0.5085423203783267, 0.0, 0.8610369959439764],
        [0.3619650009883935, 0.9321916852554909, 0.0],
    ])
    assert np.max(np.abs(rows - expected)) <= 1e-12

    rng = np.random.default_rng(4)
    alphabet = "abcdefgh"
    fragments = [
        [alphabet[int(i)] for i in rng.integers(0, 8, size=int(rng.integers(1, 30)))]
        for _ in range(100)
    ]
    capped = fit_tfidf(fragments[:50], max_terms=5)
    norms = np.linalg.norm(capped.transform_many(fragments + [["zzz"]]), axis=1)
    assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))


def _separable_dataset(seed: int):
    """200 points in 6-d, pushed apart along a random direction so the
    classes are linearly separable with margin 1.5 by construction."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=6)
    direction /= np.linalg.norm(direction)
    X = rng.normal(size=(200, 6))
    y = np.where(X @ direction >= 0.0, 1, -1)
    return X + np.outer(y, direction) * 1.5, y


def test_criterion_05_model_training_guarantees():
    for seed in range(20):
        X, y = _separable_dataset(seed)
        model = train_linear_svc(X, y)
        assert np.array_equal(model.predict_many(X), y)
        history = model.objective_history
        assert all(later <= earlier for earlier, later in zip(history, history[1:]))

    Xf, yf = _separable_dataset(100)
    first = train_random_forest(Xf, yf, n_trees=15, seed=9)
    second = train_random_forest(Xf, yf, n_trees=15, seed=9)
    assert json.dumps(first.to_json_dict(), sort_keys=True) == \
        json.dumps(second.to_json_dict(), sort_keys=True)

    assert gini_impurity((7, 0)) == 0.0
    assert gini_impurity((0, 3)) == 0.0
    assert gini_impurity((8, 8)) == 0.5


def test_criterion_06_synthetic_grid_trend(resources):
    started = time.perf_counter()
    corpus = make_corpus(n_children=200, n_adult=200, seed=7)
    wanted = ("baseline", "baseline+general", "baseline+all")
    conditions = [c for c in grid_conditions() if c[0] in wanted]
    rows = run_grid(corpus, resources, ("lsvc",), TrainSettings(), conditions)
    f1 = {row.condition: row.report.f1 for row in rows}
    assert f1["baseline+general"] >= f1["baseline"]
    assert f1["baseline+all"] >= f1["baseline"] + 0.03
    assert f1["baseline+all"] >= 0.90
    assert time.perf_counter() - started < 120.0


def test_criterion_07_readability_cross_correlation(resources):
    corpus = make_corpus(n_children=25, n_adult=25, seed=11)
    graded_resources = replace(
        resources, coefficients=ReadabilityCoefficients.from_file(GRADE_COEFFICIENTS_FILE))
    fk_grade, fk_default, ari_values = [], [], []
    for doc in corpus:
        graded = by_family(extract_all(doc, graded_resources))["readability"]
        fk_grade.append(graded["index_fk"])
        ari_values.append(graded["index_ari"])
        fk_default.append(by_family(extract_all(doc, resources))["readability"]["index_fk"])
    assert float(np.corrcoef(fk_grade, ari_values)[0, 1]) > 0.8
    # the default coefficients score reading ease, not grade level, so the
    # same co-movement shows up with the sign flipped
    assert float(np.corrcoef(fk_default, ari_values)[0, 1]) < -0.8


CORPUS_ENV = "AGELEX_PUBLIC_CORPUS"

# published per-cell averages for the reference preview corpus:
# (avg tokens, avg sentences)
REFERENCE_AVERAGES = {
    (Label.CHILDREN, Split.TRAIN): (488.55, 37.35),
    (Label.ADULT, Split.TRAIN): (499.52, 35.2),
    (Label.CHILDREN, Split.TEST): (479.3, 36.05),
    (Label.ADULT, Split.TEST): (498.16, 36.49),
}


@pytest.mark.skipif(CORPUS_ENV not in os.environ,
                    reason=f"set {CORPUS_ENV} to a labeled preview corpus (JSONL) "
                           "to run the external-data check")
def test_criterion_08_reference_corpus_trends(resources):
    corpus = load_corpus(os.environ[CORPUS_ENV])
    stats = corpus_stats(corpus, resources.morphology, resources.abbreviations)
    for key, (tokens, sentences) in REFERENCE_AVERAGES.items():
        cell = stats.get(key)
        if cell is None or cell.count == 0:
            continue
        assert abs(cell.avg_tokens - tokens) / tokens <= 0.10
        assert abs(cell.avg_sentences - sentences) / sentences <= 0.10

    wanted = ("baseline", "baseline+age_rating", "baseline+all")
    conditions = [c for c in grid_conditions() if c[0] in wanted]
    rows = run_grid(corpus, resources, ("lsvc",), TrainSettings(), conditions)
    f1 = {row.condition: row.report.f1 for row in rows}
    assert f1["baseline+all"] >= f1["baseline"] + 0.05
    assert f1["baseline+age_rating"] >= f1["baseline"]
