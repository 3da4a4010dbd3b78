"""One workload process: set up, run the timed loop, check the outputs.

    python3 perfbench/worker.py --workload classify-short --inputs DIR \
        --seed 3 --seconds 20 --out result.json [--trace] [--ops N]
    python3 perfbench/worker.py --workload experiment --inputs DIR \
        --seed 3 --setup-only --out setup.json

Set-up is everything before the first timed operation: importing agelex,
loading the bundled resources and loading the artifacts (classify-short,
score-long) or the corpus (experiment).  The timed phase is closed-loop
with one caller and no think time: an operation starts when the previous
one has returned.  Without --ops it ends before the first operation that
is predicted to finish after --seconds; with --ops it runs exactly that
many, so a traced pass can repeat an untraced one.  An operation that
raises is counted as failed and the loop goes on.

A calibrate.Sampler runs through the timed phase, and each latency is
kept both as measured (its ticks left out) and scaled to the reference
machine.  The result, written as JSON to --out, holds latency
percentiles, counts, accuracy, the outcome of each correctness check,
the input properties and, with --trace, the aggregated layer spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

import calibrate
import inputs
from spans import Tracer

CHECK_SAMPLE = 64  # requests per model kind re-run by the checks

# loose floors: a model that lost its signal answers near 0.5
ACCURACY_FLOOR = {"classify-short": 0.6, "score-long": 0.8, "experiment": 0.7}


class Loop:
    """The timed phase; a calibration sampler runs for as long as it does."""

    def __init__(self, seconds: float, ops: int | None, timed: "Timed"):
        self.seconds = seconds
        self.ops = ops
        self.n = 0
        self.timed = timed
        self.sampler = timed.sampler = calibrate.Sampler()
        self.start = time.perf_counter()

    def more(self) -> bool:
        if self.ops is not None:
            going = self.n < self.ops
        elif self.n == 0:
            going = True
        else:
            elapsed = time.perf_counter() - self.start
            going = elapsed * (self.n + 1) / self.n <= self.seconds
        if not going:
            self.sampler.stop()
            self.timed.rescale()
        return going


class Timed:
    """Runs one operation with spans switched on and times it."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.latencies: list[float] = []  # wall clock, calibration blocks taken out
        self.intervals: list[tuple[float, float]] = []
        self.scaled: list[float] = []  # reference-machine times, filled by rescale()
        self.failed = 0
        self.errors: list[str] = []
        self.sampler: calibrate.Sampler | None = None

    def __call__(self, fn, *args):
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        work = calibrate.work_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            # the calibration ticks run inside the operation are not its time
            elapsed = (calibrate.work_ns() - work) / 1e9
            end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.active = False
        self.latencies.append(elapsed)
        self.intervals.append((start, end))
        return out

    def rescale(self) -> None:
        self.scaled = [latency * self.sampler.scale(start, end)
                       for latency, (start, end) in zip(self.latencies, self.intervals)]


def quartiles(values) -> list[float]:
    if len(values) < 2:
        return [float(values[0])] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def latency_summary(latencies: list[float]) -> dict:
    ms = sorted(x * 1000.0 for x in latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {"p50_ms": statistics.median(ms), "p90_ms": p90, "samples": len(ms),
            "beyond_p90": sum(1 for x in ms if x > p90)}


def setup(agelex, workload: str, inputs_dir: Path) -> dict:
    state = {"resources": agelex.Resources.bundled()}
    if workload == "experiment":
        state["corpus"] = agelex.load_corpus(inputs_dir / "corpus.jsonl")
    else:
        kinds = ("lsvc", "rf") if workload == "classify-short" else ("lsvc",)
        state["models"] = {kind: agelex.load_model(inputs_dir / f"model_{kind}.json")
                           for kind in kinds}
    return state


def run_classify(agelex, state, args, timed: Timed) -> dict:
    resources, models = state["resources"], state["models"]
    pool = agelex.load_corpus(args.inputs / "pool.jsonl").documents
    stream = inputs.classify_requests(pool, inputs.derived_seeds(args.seed)["stream"])
    sample = {kind: [] for kind in models}
    per_kind = {kind: [] for kind in models}
    tokens, sentences = [], []
    correct = 0
    loop = Loop(args.seconds, args.ops, timed)
    while loop.more():
        doc, kind = next(stream)
        tokens.append(inputs.token_count(doc.text))
        sentences.append(inputs.sentence_count(doc.text))
        out = timed(models[kind].classify, doc, resources)
        loop.n += 1
        if out is None:
            continue
        per_kind[kind].append(len(timed.latencies) - 1)
        correct += out[0] is doc.label
        if len(sample[kind]) < CHECK_SAMPLE:
            sample[kind].append((doc, out))

    checks = {}
    batch_ok, repeat_ok, n_checked = True, True, 0
    for kind, items in sample.items():
        if not items:
            continue
        docs = [doc for doc, _ in items]
        batch = models[kind].predict_documents(docs, resources)
        for (doc, (label, score)), pred in zip(items, batch.tolist()):
            batch_ok &= (label is agelex.Label.CHILDREN) == (pred == 1)
            repeat_ok &= models[kind].classify(doc, resources) == (label, score)
            n_checked += 1
    checks["classify_matches_predict_documents"] = (batch_ok, f"{n_checked} requests")
    checks["repeat_is_identical"] = (repeat_ok, f"{n_checked} requests classified twice")
    n = len(timed.latencies)
    accuracy = correct / n if n else 0.0
    checks["accuracy_floor"] = (accuracy >= ACCURACY_FLOOR[args.workload],
                                f"{accuracy:.4f} >= {ACCURACY_FLOOR[args.workload]}")
    return {
        "ops": loop.n, "op": "request", "units": n, "docs": n, "accuracy": accuracy,
        "attempted": loop.n, "failed": timed.failed, "checks": checks,
        "by_model": {kind: latency_summary([timed.scaled[i] for i in v])
                     for kind, v in per_kind.items() if v},
        "inputs": {"requests": loop.n, "tokens_per_doc_quartiles": quartiles(tokens),
                   "sentences_per_doc_quartiles": quartiles(sentences),
                   "model_mix": {k: len(v) / max(1, loop.n) for k, v in per_kind.items()}},
    }


def run_score(agelex, state, args, timed: Timed) -> dict:
    resources, model = state["resources"], state["models"]["lsvc"]
    pool = agelex.load_corpus(args.inputs / "pool.jsonl").documents
    token_range = inputs.SIZES[args.size]["long_tokens"]
    stream = inputs.long_batches(pool, inputs.derived_seeds(args.seed)["stream"], token_range)
    tokens, sentences = [], []
    correct = scored = 0
    first = None
    loop = Loop(args.seconds, args.ops, timed)
    while loop.more():
        batch = next(stream)
        tokens += [inputs.token_count(doc.text) for doc in batch]
        sentences += [inputs.sentence_count(doc.text) for doc in batch]
        preds = timed(model.predict_documents, batch, resources)
        loop.n += 1
        if preds is None:
            continue
        scored += len(batch)
        gold = [1 if doc.label is agelex.Label.CHILDREN else -1 for doc in batch]
        correct += sum(int(p == g) for p, g in zip(preds.tolist(), gold))
        if first is None:
            first = (batch, preds.tolist())

    checks = {}
    if first is not None:
        batch, preds = first
        labels = [model.classify(doc, resources)[0] for doc in batch]
        same = all((label is agelex.Label.CHILDREN) == (p == 1) for label, p in zip(labels, preds))
        checks["classify_matches_predict_documents"] = (same, f"{len(batch)} documents")
        again = model.predict_documents(batch, resources).tolist()
        checks["repeat_is_identical"] = (again == preds, f"{len(batch)} documents scored twice")
    else:
        checks["scored_any"] = (False, "no batch succeeded")
    accuracy = correct / scored if scored else 0.0
    checks["accuracy_floor"] = (accuracy >= ACCURACY_FLOOR[args.workload],
                                f"{accuracy:.4f} >= {ACCURACY_FLOOR[args.workload]}")
    return {
        "ops": loop.n, "op": f"batch of {inputs.BATCH_SIZE} documents", "units": scored,
        "docs": scored,
        "accuracy": accuracy, "attempted": loop.n * inputs.BATCH_SIZE,
        "failed": timed.failed * inputs.BATCH_SIZE, "checks": checks,
        "inputs": {"documents": len(tokens), "tokens_per_doc_quartiles": quartiles(tokens),
                   "sentences_per_doc_quartiles": quartiles(sentences),
                   "model_mix": {"lsvc": 1.0}},
    }


def reproduce(agelex, corpus, resources) -> tuple:
    """The library calls behind the stats, informativeness, correlations
    and grid commands, on the train split's quantitative features (the
    five families other than publishing, 51 columns)."""
    import numpy as np
    stats = agelex.corpus.corpus_stats(corpus, resources.morphology, resources.abbreviations)
    names = tuple(n for f in agelex.features.QUANTITATIVE_FAMILIES for n in agelex.FAMILY_NAMES[f])
    index = {name: i for i, name in enumerate(agelex.ALL_FEATURE_NAMES)}
    cols = [index[n] for n in names]
    train = corpus.subset(agelex.Split.TRAIN)
    X = np.vstack([np.asarray(agelex.extract_all(doc, resources).values)[cols] for doc in train])
    y = np.array([1 if doc.label is agelex.Label.CHILDREN else -1 for doc in train])
    scores = agelex.rank_features(X, y, names)
    correlations = agelex.correlation_matrix(X, names)
    rows = agelex.run_grid(corpus, resources)
    return stats, names, scores, correlations, rows


def run_experiment(agelex, state, args, timed: Timed) -> dict:
    resources, corpus = state["resources"], state["corpus"]
    results = []
    loop = Loop(args.seconds, args.ops, timed)
    while loop.more():
        out = timed(reproduce, agelex, corpus, resources)
        loop.n += 1
        if out is not None:
            results.append(out)

    checks = {}
    accuracy = f1_mean = 0.0
    if results:
        stats, names, scores, correlations, rows = results[0]
        checks["stats_counts_documents"] = (
            sum(cell.count for cell in stats.values()) == len(corpus), f"{len(corpus)} documents")
        checks["rank_features_one_score_per_feature_in_unit_interval"] = (
            sorted(s.name for s in scores) == sorted(names)
            and all(0.0 <= s.score <= 1.0 for s in scores),
            f"{len(scores)} scores for {len(names)} quantitative features")
        checks["correlation_matrix_shape"] = (
            correlations.matrix.shape == (len(names), len(names)), f"{len(names)} x {len(names)}")
        keys = {(r.model_kind, r.condition) for r in rows}
        checks["grid_has_36_rows"] = (len(rows) == 36 and len(keys) == 36, f"{len(rows)} rows")
        subset = [(name, recipe) for name, recipe in agelex.grid_conditions()
                  if name in ("baseline+all", "all")]
        again = agelex.run_grid(corpus, resources, conditions=subset)
        by_key = {(r.model_kind, r.condition): r for r in rows}
        same = all(by_key.get((r.model_kind, r.condition)) == r for r in again)
        same &= all(other[4] == rows for other in results[1:])
        checks["repeat_is_identical"] = (
            same, f"{len(again)} grid rows rerun, {len(results)} reproductions compared")
        accuracy = statistics.fmean(r.report.accuracy for r in rows)
        f1_mean = statistics.fmean(r.report.f1 for r in rows)
        checks["accuracy_floor"] = (f1_mean >= ACCURACY_FLOOR[args.workload],
                                    f"grid f1 mean {f1_mean:.4f} >= {ACCURACY_FLOOR[args.workload]}")
    else:
        checks["reproduced_any"] = (False, "every reproduction raised")
    docs = len(corpus)
    n_test = len(corpus.subset(agelex.Split.TEST))
    return {
        "ops": loop.n, "op": "reproduction", "units": len(results),
        "docs": docs * len(results),
        "accuracy": accuracy, "grid_f1_mean": f1_mean,
        "attempted": loop.n, "failed": timed.failed, "checks": checks,
        "inputs": {"documents": docs, "test_documents": n_test,
                   "tokens_per_doc_quartiles": quartiles([inputs.token_count(d.text) for d in corpus]),
                   "sentences_per_doc_quartiles": quartiles(
                       [inputs.sentence_count(d.text) for d in corpus]),
                   "grid": "2 models x 18 conditions"},
    }


RUNNERS = {"classify-short": run_classify, "score-long": run_score, "experiment": run_experiment}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--size", default="full", choices=tuple(inputs.SIZES))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    agelex = inputs.import_agelex()
    import numpy
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    state = setup(agelex, args.workload, args.inputs)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.setup_only:
        result["calibration_ms"] = calibrate.probe()
    if not args.setup_only:
        if tracer is not None:
            tracer.active = False
            result["setup_spans"] = tracer.snapshot()
            tracer.reset()
        timed = Timed(tracer)
        result.update(RUNNERS[args.workload](agelex, state, args, timed))
        result["checks"] = {k: [bool(ok), detail] for k, (ok, detail) in result["checks"].items()}
        result["errors"] = timed.errors
        result["timed_s"] = sum(timed.scaled)
        result["raw_timed_s"] = sum(timed.latencies)
        result["latency"] = latency_summary(timed.scaled) if timed.scaled else None
        result["raw_latency"] = latency_summary(timed.latencies) if timed.latencies else None
        result["calibration_ms"] = statistics.median(timed.sampler.block_ms)
        result["calibration_ticks"] = len(timed.sampler.block_ms)
        if tracer is not None:
            result["spans"] = tracer.snapshot()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
