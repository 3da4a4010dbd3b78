"""Command-line interface.

Commands: ingest, stats, extract, train, evaluate, grid, informativeness,
correlations, classify.  Options can come from a key = value config file
(--config); explicit flags win over the file, the file wins over builtin
defaults, and every command prints the effective configuration before
doing any work.  Outputs land under --out; all errors go to stderr with
exit code 1.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import DEFAULT_INTERVALS, correlation_matrix, rank_features
from .corpus import AgeRating, Corpus, Document, Label, Split, corpus_stats, load_corpus, random_split, write_corpus
from .errors import AgelexError, ConfigError
from .features import ALL_FEATURE_NAMES, FAMILY_NAMES, QUANTITATIVE_FAMILIES
from .models import load_model, save_model
from .pipeline import (MODEL_KINDS, CorpusVectors, Recipe, TrainSettings,
                       TrainedPipeline, grid_conditions, label_to_int,
                       run_grid, train_pipeline)
from .resources import Resources

_RESOURCE_KEYS = ("morphology", "frequency", "sentiment", "top5000",
                  "familiar", "stopwords", "abbreviations", "coefficients")

# builtin defaults for options that may also come from a config file
_DEFAULTS = {
    "seed": 42,
    "out": "out",
    "model": "lsvc",
    "features": "none",
    "tfidf": True,
    "abstracts": False,
    "svd": "auto",
    "svd_target": 0.95,
    "c": 1.0,
    "epochs": 200,
    "tolerance": 1e-5,
    "trees": 100,
    "max_terms": 2000,
    "fragment_limit": 256,
    "intervals": DEFAULT_INTERVALS,
    "families": ",".join(QUANTITATIVE_FAMILIES),
    "split": "train",
    "models": ",".join(MODEL_KINDS),
    "test_fraction": None,
    "heuristic_morph": False,
    "positive_class": "children",
}
for _k in _RESOURCE_KEYS:
    _DEFAULTS[_k] = None


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if not key:
            raise ConfigError(f"{path}: line {lineno}: empty key")
        values[key] = value.strip()
    return values


def _coerce(key: str, raw: str):
    default = _DEFAULTS.get(key)
    if isinstance(default, bool):
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r}: expected an integer, got {raw!r}")
    if isinstance(default, float) or key in ("test_fraction",):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r}: expected a number, got {raw!r}")
    return raw


class Options:
    """Merged view of builtin defaults, config file and explicit flags."""

    def __init__(self, args: argparse.Namespace):
        merged = dict(_DEFAULTS)
        config_path = getattr(args, "config", None)
        if config_path:
            for key, raw in _parse_config_file(config_path).items():
                if key not in _DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
                merged[key] = _coerce(key, raw)
        for key, value in vars(args).items():
            if key in ("command", "config", "func"):
                continue
            if value is not None:
                merged[key] = value
        self._values = merged
        self.command = args.command
        self.args = args

    def __getattr__(self, key: str):
        try:
            return self._values[key]
        except KeyError:
            raise AttributeError(key)

    def print_effective(self, keys: list[str]) -> None:
        print(f"command = {self.command}")
        for key in sorted(set(keys)):
            print(f"{key} = {self._values[key]}")


def _load_resources(opts: Options) -> Resources:
    paths = {key: getattr(opts, key) for key in _RESOURCE_KEYS}
    return Resources.load(paths, heuristic_fallback=opts.heuristic_morph)

def _out_dir(opts: Options) -> Path:
    out = Path(opts.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _positive(opts: Options) -> Label:
    return Label.parse(opts.positive_class)


def _parse_families(raw: str) -> tuple[str, ...]:
    if raw in ("all",):
        return tuple(FAMILY_NAMES)
    if raw in ("", "none"):
        return ()
    families = tuple(part.strip() for part in raw.split(",") if part.strip())
    unknown = [f for f in families if f not in FAMILY_NAMES]
    if unknown:
        raise ConfigError(f"unknown feature families {unknown}; known: {list(FAMILY_NAMES)}")
    return families


def _split_docs(corpus: Corpus, which: str) -> list[Document]:
    if which == "all":
        return list(corpus)
    if which not in ("train", "test"):
        raise ConfigError(f"split must be train, test or all, got {which!r}")
    return corpus.subset(Split(which))


def _report_warnings(vectors: CorpusVectors) -> None:
    n_missing = vectors.warning_count("no_frequency_matches")
    if n_missing:
        print(f"warning: {n_missing} documents had no frequency-dictionary matches")


def _write_tsv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_cell(v) for v in row) + "\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _settings(opts: Options) -> TrainSettings:
    return TrainSettings(
        seed=opts.seed, svc_c=opts.c, svc_max_epochs=opts.epochs,
        svc_tolerance=opts.tolerance, n_trees=opts.trees,
        max_terms=opts.max_terms, fragment_limit=opts.fragment_limit,
        svd=opts.svd, svd_target=opts.svd_target,
    )


_COMMON_KEYS = ["seed", "out"]
_RES_KEYS = list(_RESOURCE_KEYS) + ["heuristic_morph"]


def cmd_ingest(opts: Options) -> int:
    opts.print_effective(_COMMON_KEYS + ["corpus", "test_fraction"])
    corpus = load_corpus(opts.args.corpus)
    if opts.test_fraction is not None:
        corpus = random_split(corpus, float(opts.test_fraction), opts.seed)
    out = _out_dir(opts)
    write_corpus(corpus, out / "corpus.jsonl")
    n_train = len(corpus.subset(Split.TRAIN))
    n_test = len(corpus.subset(Split.TEST))
    print(f"ingested {len(corpus)} documents ({n_train} train, {n_test} test) -> {out / 'corpus.jsonl'}")
    return 0


def cmd_stats(opts: Options) -> int:
    opts.print_effective(_COMMON_KEYS + _RES_KEYS + ["corpus"])
    resources = _load_resources(opts)
    corpus = load_corpus(opts.args.corpus)
    stats = corpus_stats(corpus, resources.morphology, resources.abbreviations)
    header = ["label", "split", "count", "avg_symbols", "avg_tokens", "avg_sentences"]
    rows = []
    for label in Label:
        for split in Split:
            cell = stats[(label, split)]
            rows.append([label.value, split.value, cell.count,
                         *(v if v is not None else "-" for v in
                           (cell.avg_symbols, cell.avg_tokens, cell.avg_sentences))])
    _write_tsv(_out_dir(opts) / "stats.tsv", header, rows)
    widths = [12, 6, 6, 12, 11, 13]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_cell(v).ljust(w) for v, w in zip(row, widths)))
    return 0


def cmd_extract(opts: Options) -> int:
    opts.print_effective(_COMMON_KEYS + _RES_KEYS + ["corpus"])
    resources = _load_resources(opts)
    corpus = load_corpus(opts.args.corpus)
    vectors = CorpusVectors(resources)
    header = ["id", "label", "split"] + list(ALL_FEATURE_NAMES)
    rows = [[doc.id, doc.label.value, doc.split.value, *vectors.features(doc).values]
            for doc in corpus]
    out = _out_dir(opts) / "features.tsv"
    _write_tsv(out, header, rows)
    print(f"extracted {len(ALL_FEATURE_NAMES)} features for {len(rows)} documents -> {out}")
    _report_warnings(vectors)
    return 0


def cmd_train(opts: Options) -> int:
    keys = _COMMON_KEYS + _RES_KEYS + ["corpus", "model", "features", "tfidf", "abstracts",
                                       "svd", "svd_target", "c", "epochs", "tolerance",
                                       "trees", "max_terms", "fragment_limit", "positive_class"]
    opts.print_effective(keys)
    resources = _load_resources(opts)
    corpus = load_corpus(opts.args.corpus)
    recipe = Recipe(use_tfidf=opts.tfidf, families=_parse_families(opts.features),
                    use_abstract=opts.abstracts)
    vectors = CorpusVectors(resources)
    trained = train_pipeline(corpus, resources, recipe, opts.model, _settings(opts), vectors)
    out = _out_dir(opts)
    model_path = out / f"model_{opts.model}.json"
    save_model(trained, model_path)
    train_docs = corpus.subset(Split.TRAIN)
    report = trained.evaluate(train_docs, resources, vectors, positive=_positive(opts))
    print(f"trained {opts.model} on {len(train_docs)} documents -> {model_path}")
    if opts.model == "lsvc":
        verdict = "converged" if trained.model.hyperparams["converged"] else "not converged"
        print(f"solver: Newton iterations = {trained.model.n_epochs}, {verdict}")
    print(f"training accuracy = {report.accuracy:.4f}, f1 = {report.f1:.4f} "
          f"(positive class: {report.positive_class.value})")
    _report_warnings(vectors)
    return 0


def cmd_evaluate(opts: Options) -> int:
    opts.print_effective(_COMMON_KEYS + _RES_KEYS + ["corpus", "split", "positive_class"])
    resources = _load_resources(opts)
    corpus = load_corpus(opts.args.corpus)
    trained = load_model(opts.args.model_file)
    if not isinstance(trained, TrainedPipeline):
        raise ConfigError(f"{opts.args.model_file} does not contain a trained pipeline")
    docs = _split_docs(corpus, opts.split)
    if not docs:
        raise ConfigError(f"corpus has no documents in split {opts.split!r}")
    vectors = CorpusVectors(resources)
    report = trained.evaluate(docs, resources, vectors, positive=_positive(opts))
    header = ["split", "n", "accuracy", "precision", "recall", "f1",
              "positive_class", "tp", "fp", "fn", "tn"]
    row = [opts.split, len(docs), report.accuracy, report.precision, report.recall,
           report.f1, report.positive_class.value, report.tp, report.fp, report.fn, report.tn]
    _write_tsv(_out_dir(opts) / "metrics.tsv", header, [row])
    print(f"{opts.split}: accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} f1={report.f1:.4f} "
          f"(positive class: {report.positive_class.value})")
    _report_warnings(vectors)
    return 0


def cmd_grid(opts: Options) -> int:
    keys = _COMMON_KEYS + _RES_KEYS + ["corpus", "models", "svd", "svd_target", "c",
                                       "epochs", "tolerance", "trees", "max_terms",
                                       "fragment_limit"]
    opts.print_effective(keys)
    resources = _load_resources(opts)
    corpus = load_corpus(opts.args.corpus)
    kinds = tuple(k.strip() for k in str(opts.models).split(",") if k.strip())
    vectors = CorpusVectors(resources)
    rows = run_grid(corpus, resources, kinds, _settings(opts), cache=vectors)
    header = ["model", "condition", "accuracy", "f1", "precision", "recall"]
    table = [[r.model_kind, r.condition, r.report.accuracy, r.report.f1,
              r.report.precision, r.report.recall] for r in rows]
    _write_tsv(_out_dir(opts) / "grid.tsv", header, table)
    print(f"positive class: children; {len(grid_conditions())} conditions x {len(kinds)} models")
    print(f"{'model':6s} {'condition':26s} {'acc':>7s} {'f1':>7s} {'prec':>7s} {'rec':>7s}")
    for r in rows:
        m = r.report
        print(f"{r.model_kind:6s} {r.condition:26s} {100 * m.accuracy:7.2f} "
              f"{100 * m.f1:7.2f} {100 * m.precision:7.2f} {100 * m.recall:7.2f}")
    _report_warnings(vectors)
    return 0


def cmd_informativeness(opts: Options) -> int:
    opts.print_effective(_COMMON_KEYS + _RES_KEYS + ["corpus", "intervals", "families", "split"])
    resources = _load_resources(opts)
    corpus = load_corpus(opts.args.corpus)
    docs = _split_docs(corpus, opts.split)
    if not docs:
        raise ConfigError(f"corpus has no documents in split {opts.split!r}")
    families = _parse_families(opts.families) or QUANTITATIVE_FAMILIES
    names = tuple(n for f in families for n in FAMILY_NAMES[f])
    X = CorpusVectors(resources).feature_matrix(docs, names)
    y = np.array([label_to_int(d.label) for d in docs])
    scores = rank_features(X, y, names, opts.intervals)
    header = ["feature", "informativeness", "mean_adult", "std_adult",
              "mean_children", "std_children"]
    rows = [[s.name, s.score, s.mean_adult, s.std_adult, s.mean_children, s.std_children]
            for s in scores]
    _write_tsv(_out_dir(opts) / "informativeness.tsv", header, rows)
    print(f"scored {len(rows)} features on {len(docs)} documents "
          f"({opts.intervals} intervals); top 10:")
    for s in scores[:10]:
        print(f"  {s.name:16s} {s.score:.4f}  adult {s.mean_adult:.2f}±{s.std_adult:.2f}  "
              f"children {s.mean_children:.2f}±{s.std_children:.2f}")
    return 0


def cmd_correlations(opts: Options) -> int:
    opts.print_effective(_COMMON_KEYS + _RES_KEYS + ["corpus", "families", "split"])
    resources = _load_resources(opts)
    corpus = load_corpus(opts.args.corpus)
    docs = _split_docs(corpus, opts.split)
    if not docs:
        raise ConfigError(f"corpus has no documents in split {opts.split!r}")
    families = _parse_families(opts.families) or QUANTITATIVE_FAMILIES
    names = tuple(n for f in families for n in FAMILY_NAMES[f])
    X = CorpusVectors(resources).feature_matrix(docs, names)
    result = correlation_matrix(X, names)
    header = ["feature"] + list(names)
    rows = [[name, *result.matrix[i]] for i, name in enumerate(names)]
    _write_tsv(_out_dir(opts) / "correlations.tsv", header, rows)
    print(f"correlation matrix over {len(names)} features and {len(docs)} documents "
          f"-> {_out_dir(opts) / 'correlations.tsv'}")
    if result.zero_variance:
        print(f"zero-variance features (correlations set to 0): {', '.join(result.zero_variance)}")
    return 0


def cmd_classify(opts: Options) -> int:
    opts.print_effective(_COMMON_KEYS + _RES_KEYS + ["seed"])
    resources = _load_resources(opts)
    trained = load_model(opts.args.model_file)
    if not isinstance(trained, TrainedPipeline):
        raise ConfigError(f"{opts.args.model_file} does not contain a trained pipeline")
    if opts.args.text is not None:
        text = opts.args.text
    elif opts.args.input is not None:
        text = Path(opts.args.input).read_text(encoding="utf-8")
    else:
        text = sys.stdin.read()
    if not text.strip():
        raise ConfigError("empty text")
    doc = Document(id="<input>", text=text, label=Label.CHILDREN,
                   abstract=opts.args.abstract,
                   age_rating=AgeRating.parse(opts.args.age_rating))
    vectors = CorpusVectors(resources)
    label, score = trained.classify(doc, resources, vectors)
    score_name = "margin" if trained.model_kind == "lsvc" else "vote_fraction"
    print(f"label = {label.value} ({score_name} = {score:.4f})")
    if opts.args.explain:
        fv = vectors.features(doc)
        for name, value in zip(fv.names, fv.values):
            print(f"  {name} = {value:.6f}")
        for warning in fv.warnings:
            print(f"  warning: {warning}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agelex",
                                     description="age-based text classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    common.add_argument("--config")

    res = argparse.ArgumentParser(add_help=False)
    for key in _RESOURCE_KEYS:
        res.add_argument(f"--{key}")
    res.add_argument("--heuristic-morph", action="store_const", const=True,
                     dest="heuristic_morph")

    def cmd(name, func, parents, help_text):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.set_defaults(func=func)
        return p

    p = cmd("ingest", cmd_ingest, [common], "validate a corpus and assign splits")
    p.add_argument("--corpus", required=True)
    p.add_argument("--test-fraction", type=float, dest="test_fraction")

    p = cmd("stats", cmd_stats, [common, res], "per-class corpus summary")
    p.add_argument("--corpus", required=True)

    p = cmd("extract", cmd_extract, [common, res], "write the feature table")
    p.add_argument("--corpus", required=True)

    p = cmd("train", cmd_train, [common, res], "train one model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", choices=list(MODEL_KINDS))
    p.add_argument("--features", help="comma-separated families, 'all' or 'none'")
    p.add_argument("--tfidf", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--abstracts", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--svd", choices=["auto", "on", "off"])
    p.add_argument("--svd-target", type=float, dest="svd_target")
    p.add_argument("--c", type=float)
    p.add_argument("--epochs", type=int, help="LSVC Newton iteration cap")
    p.add_argument("--tolerance", type=float, help="LSVC gradient-norm tolerance")
    p.add_argument("--trees", type=int)
    p.add_argument("--max-terms", type=int, dest="max_terms")
    p.add_argument("--fragment-limit", type=int, dest="fragment_limit")

    p = cmd("evaluate", cmd_evaluate, [common, res], "evaluate a trained model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--split", choices=["train", "test", "all"])
    p.add_argument("--positive-class", choices=["children", "adult"], dest="positive_class")

    p = cmd("grid", cmd_grid, [common, res], "run the full experiment grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", help="comma-separated model kinds (rf,lsvc)")
    p.add_argument("--svd", choices=["auto", "on", "off"])
    p.add_argument("--svd-target", type=float, dest="svd_target")
    p.add_argument("--c", type=float)
    p.add_argument("--epochs", type=int, help="LSVC Newton iteration cap")
    p.add_argument("--tolerance", type=float, help="LSVC gradient-norm tolerance")
    p.add_argument("--trees", type=int)
    p.add_argument("--max-terms", type=int, dest="max_terms")
    p.add_argument("--fragment-limit", type=int, dest="fragment_limit")

    p = cmd("informativeness", cmd_informativeness, [common, res],
            "rank features by class separation")
    p.add_argument("--corpus", required=True)
    p.add_argument("--intervals", type=int)
    p.add_argument("--families")
    p.add_argument("--split", choices=["train", "test", "all"])

    p = cmd("correlations", cmd_correlations, [common, res],
            "pairwise feature correlations")
    p.add_argument("--corpus", required=True)
    p.add_argument("--families")
    p.add_argument("--split", choices=["train", "test", "all"])

    p = cmd("classify", cmd_classify, [common, res], "classify one text")
    p.add_argument("--model-file", required=True)
    p.add_argument("--text")
    p.add_argument("--input")
    p.add_argument("--abstract")
    p.add_argument("--age-rating", dest="age_rating")
    p.add_argument("--explain", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = Options(args)
        return args.func(opts)
    except AgelexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
