"""Command-line interface.

Commands: ingest, stats, extract, train, evaluate, grid, informativeness,
correlations, classify.  Options can come from a key = value config file
(--config); explicit flags win over the file, the file wins over builtin
defaults.  The training defaults are TrainSettings' and the resource
defaults are the bundled files.  Each command declares only the settings
that can change what it writes or prints, and before doing any work it
prints them as its settings block, its corpus among them.  Outputs land
under --out; all errors go to stderr with exit code 1.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import DEFAULT_INTERVALS, correlation_matrix, rank_features
from .corpus import AgeRating, Corpus, Document, Label, Split, corpus_stats, load_corpus, random_split, write_corpus
from .errors import AgelexError, ConfigError, decode_errors_as
from .features import ALL_FEATURE_NAMES, FAMILY_NAMES, QUANTITATIVE_FAMILIES
from .models import load_model, save_model
from .pipeline import (MODEL_KINDS, CorpusVectors, Recipe, TrainSettings,
                       TrainedPipeline, grid_conditions, label_to_int,
                       run_grid, train_pipeline)
from .resources import BUNDLED_FILES, Resources
from .text_analysis import load_abbreviations

# option name -> TrainSettings field
_TRAIN_FIELDS = {"seed": "seed", "c": "svc_c", "epochs": "svc_max_epochs",
                 "tolerance": "svc_tolerance", "trees": "n_trees",
                 "max_terms": "max_terms", "fragment_limit": "fragment_limit",
                 "svd": "svd", "svd_target": "svd_target"}
_TRAIN = TrainSettings()

# setting -> (builtin default, keywords of its --flag).  A config file may
# set any of them but corpus, and its values go through the same type and
# choices as the flag's.
_SETTINGS = {
    "corpus": (None, {"required": True}),
    "out": ("out", {}),
    "seed": (_TRAIN.seed, {"type": int}),
    "test_fraction": (None, {"type": float}),
    **{key: (None, {}) for key in BUNDLED_FILES},
    "heuristic_morph": (False, {"action": "store_const", "const": True}),
    "svd": (_TRAIN.svd, {"choices": ("auto", "off")}),
    "svd_target": (_TRAIN.svd_target, {"type": float}),
    "c": (_TRAIN.svc_c, {"type": float}),
    "epochs": (_TRAIN.svc_max_epochs, {"type": int, "help": "LSVC Newton iteration cap"}),
    "tolerance": (_TRAIN.svc_tolerance, {"type": float, "help": "LSVC gradient-norm tolerance"}),
    "trees": (_TRAIN.n_trees, {"type": int}),
    "max_terms": (_TRAIN.max_terms, {"type": int}),
    "fragment_limit": (_TRAIN.fragment_limit, {"type": int}),
    "model": ("lsvc", {"choices": MODEL_KINDS}),
    "features": ("none", {"help": "comma-separated families, 'all' or 'none'"}),
    "tfidf": (True, {"action": argparse.BooleanOptionalAction}),
    "abstracts": (False, {"action": argparse.BooleanOptionalAction}),
    "positive_class": ("children", {"choices": tuple(label.value for label in Label)}),
    "split": ("train", {"choices": ("train", "test", "all")}),
    "models": (",".join(MODEL_KINDS), {"help": "comma-separated model kinds (rf,lsvc)"}),
    "intervals": (DEFAULT_INTERVALS, {"type": int}),
    "families": (",".join(QUANTITATIVE_FAMILIES), {}),
}
_DEFAULTS = {key: default for key, (default, _) in _SETTINGS.items() if key != "corpus"}

_RESOURCES = (*BUNDLED_FILES, "heuristic_morph")
# only the tf-idf reads the stopwords
_FEATURE_RESOURCES = tuple(key for key in _RESOURCES if key != "stopwords")
_FIT = ("svd", "svd_target", "c", "epochs", "tolerance", "trees", "max_terms", "fragment_limit")


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with decode_errors_as(ConfigError, path):
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
    flag = _SETTINGS[key][1]
    if "action" in flag:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {raw!r}")
    parse = flag.get("type", str)
    try:
        value = parse(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: expected "
                          f"{'an integer' if parse is int else 'a number'}, got {raw!r}")
    choices = flag.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"config key {key!r}: expected one of {list(choices)}, got {raw!r}")
    return value


def _fill_settings(args: argparse.Namespace) -> None:
    """Set each setting the command declares and its flags left unset
    from the config file, else from its builtin default; then print the
    command and every setting it declares."""
    configured = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in _DEFAULTS:
                raise ConfigError(f"unknown config key {key!r}")
            configured[key] = _coerce(key, raw)
    print(f"command = {args.command}")
    for key in sorted(k for k in vars(args) if k in _SETTINGS):
        if getattr(args, key) is None:
            setattr(args, key, configured.get(key, _DEFAULTS[key]))
        print(f"{key} = {getattr(args, key)}")


def _load_resources(args: argparse.Namespace) -> Resources:
    paths = {key: getattr(args, key) for key in BUNDLED_FILES if key in vars(args)}
    return Resources.load(paths, heuristic_fallback=args.heuristic_morph)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    docs = list(corpus) if which == "all" else corpus.subset(Split(which))
    if not docs:
        raise ConfigError(f"corpus has no documents in split {which!r}")
    return docs


def _family_matrix(args: argparse.Namespace) -> tuple[list[Document], tuple[str, ...], np.ndarray]:
    """The documents of args.split, the feature names of args.families and
    their feature matrix."""
    resources = _load_resources(args)
    docs = _split_docs(load_corpus(args.corpus), args.split)
    families = _parse_families(args.families) or QUANTITATIVE_FAMILIES
    names = tuple(n for f in families for n in FAMILY_NAMES[f])
    return docs, names, CorpusVectors(resources).feature_matrix(docs, names)


def _load_pipeline(path: str) -> TrainedPipeline:
    trained = load_model(path)
    if not isinstance(trained, TrainedPipeline):
        raise ConfigError(f"{path} does not contain a trained pipeline")
    return trained


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


def _settings(args: argparse.Namespace) -> TrainSettings:
    return TrainSettings(**{field: getattr(args, opt) for opt, field in _TRAIN_FIELDS.items()})


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.corpus)
    if args.test_fraction is not None:
        corpus = random_split(corpus, args.test_fraction, args.seed)
    out = _out_dir(args)
    write_corpus(corpus, out / "corpus.jsonl")
    n_train = len(corpus.subset(Split.TRAIN))
    n_test = len(corpus.subset(Split.TEST))
    print(f"ingested {len(corpus)} documents ({n_train} train, {n_test} test) -> {out / 'corpus.jsonl'}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    abbreviations = load_abbreviations(args.abbreviations or BUNDLED_FILES["abbreviations"])
    corpus = load_corpus(args.corpus)
    stats = corpus_stats(corpus, abbreviations=abbreviations)
    header = ["label", "split", "count", "avg_symbols", "avg_tokens", "avg_sentences"]
    rows = []
    for label in Label:
        for split in Split:
            cell = stats[(label, split)]
            rows.append([label.value, split.value, cell.count,
                         *(v if v is not None else "-" for v in
                           (cell.avg_symbols, cell.avg_tokens, cell.avg_sentences))])
    _write_tsv(_out_dir(args) / "stats.tsv", header, rows)
    widths = [12, 6, 6, 12, 11, 13]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(_cell(v).ljust(w) for v, w in zip(row, widths)))
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    resources = _load_resources(args)
    corpus = load_corpus(args.corpus)
    vectors = CorpusVectors(resources)
    header = ["id", "label", "split"] + list(ALL_FEATURE_NAMES)
    rows = [[doc.id, doc.label.value, doc.split.value, *vectors.features(doc).values]
            for doc in corpus]
    out = _out_dir(args) / "features.tsv"
    _write_tsv(out, header, rows)
    print(f"extracted {len(ALL_FEATURE_NAMES)} features for {len(rows)} documents -> {out}")
    _report_warnings(vectors)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    resources = _load_resources(args)
    corpus = load_corpus(args.corpus)
    recipe = Recipe(use_tfidf=args.tfidf, families=_parse_families(args.features),
                    use_abstract=args.abstracts)
    vectors = CorpusVectors(resources)
    trained = train_pipeline(corpus, resources, recipe, args.model, _settings(args), vectors)
    out = _out_dir(args)
    model_path = out / f"model_{args.model}.json"
    save_model(trained, model_path)
    train_docs = corpus.subset(Split.TRAIN)
    report = trained.evaluate(train_docs, resources, vectors,
                              positive=Label.parse(args.positive_class))
    print(f"trained {args.model} on {len(train_docs)} documents -> {model_path}")
    if args.model == "lsvc":
        verdict = "converged" if trained.model.hyperparams["converged"] else "not converged"
        print(f"solver: Newton iterations = {trained.model.n_epochs}, {verdict}")
        svd = trained.model.hyperparams.get("svd")
        if svd is not None:
            print(f"svd: k = {svd['k']} of {trained.model.n_features} columns, "
                  f"retained {svd['retained']:.4f} (target {svd['target']})")
    print(f"training accuracy = {report.accuracy:.4f}, f1 = {report.f1:.4f} "
          f"(positive class: {report.positive_class.value})")
    _report_warnings(vectors)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    resources = _load_resources(args)
    corpus = load_corpus(args.corpus)
    trained = _load_pipeline(args.model_file)
    docs = _split_docs(corpus, args.split)
    vectors = CorpusVectors(resources)
    report = trained.evaluate(docs, resources, vectors,
                              positive=Label.parse(args.positive_class))
    header = ["split", "n", "accuracy", "precision", "recall", "f1",
              "positive_class", "tp", "fp", "fn", "tn"]
    row = [args.split, len(docs), report.accuracy, report.precision, report.recall,
           report.f1, report.positive_class.value, report.tp, report.fp, report.fn, report.tn]
    _write_tsv(_out_dir(args) / "metrics.tsv", header, [row])
    print(f"{args.split}: accuracy={report.accuracy:.4f} precision={report.precision:.4f} "
          f"recall={report.recall:.4f} f1={report.f1:.4f} "
          f"(positive class: {report.positive_class.value})")
    _report_warnings(vectors)
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    resources = _load_resources(args)
    corpus = load_corpus(args.corpus)
    kinds = tuple(k.strip() for k in args.models.split(",") if k.strip())
    vectors = CorpusVectors(resources)
    rows = run_grid(corpus, resources, kinds, _settings(args), cache=vectors)
    header = ["model", "condition", "accuracy", "f1", "precision", "recall"]
    table = [[r.model_kind, r.condition, r.report.accuracy, r.report.f1,
              r.report.precision, r.report.recall] for r in rows]
    _write_tsv(_out_dir(args) / "grid.tsv", header, table)
    print(f"positive class: children; {len(grid_conditions())} conditions x {len(kinds)} models")
    print(f"{'model':6s} {'condition':26s} {'acc':>7s} {'f1':>7s} {'prec':>7s} {'rec':>7s}")
    for r in rows:
        m = r.report
        print(f"{r.model_kind:6s} {r.condition:26s} {100 * m.accuracy:7.2f} "
              f"{100 * m.f1:7.2f} {100 * m.precision:7.2f} {100 * m.recall:7.2f}")
    _report_warnings(vectors)
    return 0


def cmd_informativeness(args: argparse.Namespace) -> int:
    docs, names, X = _family_matrix(args)
    y = np.array([label_to_int(d.label) for d in docs])
    scores = rank_features(X, y, names, args.intervals)
    header = ["feature", "informativeness", "mean_adult", "std_adult",
              "mean_children", "std_children"]
    rows = [[s.name, s.score, s.mean_adult, s.std_adult, s.mean_children, s.std_children]
            for s in scores]
    _write_tsv(_out_dir(args) / "informativeness.tsv", header, rows)
    print(f"scored {len(rows)} features on {len(docs)} documents "
          f"({args.intervals} intervals); top 10:")
    for s in scores[:10]:
        print(f"  {s.name:16s} {s.score:.4f}  adult {s.mean_adult:.2f}±{s.std_adult:.2f}  "
              f"children {s.mean_children:.2f}±{s.std_children:.2f}")
    return 0


def cmd_correlations(args: argparse.Namespace) -> int:
    docs, names, X = _family_matrix(args)
    result = correlation_matrix(X, names)
    header = ["feature"] + list(names)
    rows = [[name, *result.matrix[i]] for i, name in enumerate(names)]
    _write_tsv(_out_dir(args) / "correlations.tsv", header, rows)
    print(f"correlation matrix over {len(names)} features and {len(docs)} documents "
          f"-> {_out_dir(args) / 'correlations.tsv'}")
    if result.zero_variance:
        print(f"zero-variance features (correlations set to 0): {', '.join(result.zero_variance)}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    resources = _load_resources(args)
    trained = _load_pipeline(args.model_file)
    if args.text is not None:
        text = args.text
    elif args.input is not None:
        with decode_errors_as(ConfigError, args.input):
            text = Path(args.input).read_text(encoding="utf-8")
    else:
        with decode_errors_as(ConfigError, "<stdin>"):
            text = sys.stdin.buffer.read().decode("utf-8")
    if not text.strip():
        raise ConfigError("empty text")
    doc = Document(id="<input>", text=text, label=Label.CHILDREN,
                   abstract=args.abstract,
                   age_rating=AgeRating.parse(args.age_rating))
    vectors = CorpusVectors(resources)
    label, score = trained.classify(doc, resources, vectors)
    score_name = "margin" if trained.model_kind == "lsvc" else "vote_fraction"
    print(f"label = {label.value} ({score_name} = {score:.4f})")
    if args.explain:
        fv = vectors.features(doc)
        for name, value in zip(ALL_FEATURE_NAMES, fv.values):
            print(f"  {name} = {value:.6f}")
        for warning in fv.warnings:
            print(f"  warning: {warning}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="agelex",
                                     description="age-based text classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # command -> (its function, help, the settings it declares: those that
    # can change what it writes or prints)
    commands = {
        "ingest": (cmd_ingest, "validate a corpus and assign splits",
                   ("corpus", "seed", "out", "test_fraction")),
        "stats": (cmd_stats, "per-class corpus summary", ("corpus", "out", "abbreviations")),
        "extract": (cmd_extract, "write the feature table", ("corpus", "out", *_FEATURE_RESOURCES)),
        "train": (cmd_train, "train one model",
                  ("corpus", "seed", "out", *_RESOURCES, *_FIT, "model", "features", "tfidf",
                   "abstracts", "positive_class")),
        "evaluate": (cmd_evaluate, "evaluate a trained model",
                     ("corpus", "out", *_RESOURCES, "split", "positive_class")),
        "grid": (cmd_grid, "run the full experiment grid",
                 ("corpus", "seed", "out", *_RESOURCES, *_FIT, "models")),
        "informativeness": (cmd_informativeness, "rank features by class separation",
                            ("corpus", "out", *_FEATURE_RESOURCES, "intervals", "families",
                             "split")),
        "correlations": (cmd_correlations, "pairwise feature correlations",
                         ("corpus", "out", *_FEATURE_RESOURCES, "families", "split")),
        "classify": (cmd_classify, "classify one text", _RESOURCES),
    }
    for name, (func, help_text, settings) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config")
        for key in settings:
            p.add_argument("--" + key.replace("_", "-"), **_SETTINGS[key][1])
        if name in ("evaluate", "classify"):
            p.add_argument("--model-file", required=True)
    p = sub.choices["classify"]
    p.add_argument("--text")
    p.add_argument("--input")
    p.add_argument("--abstract")
    p.add_argument("--age-rating")
    p.add_argument("--explain", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _fill_settings(args)
        return args.func(args)
    except (AgelexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
