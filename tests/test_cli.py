"""End-to-end command-line tests on a small generated corpus."""
import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import agelex.cli
import agelex.features
from agelex.cli import main
from agelex.corpus import Corpus, Document, Label, Split, load_corpus, write_corpus
from agelex.features import ALL_FEATURE_NAMES
from agelex.models import save_model
from agelex.pipeline import Recipe, TrainSettings, train_pipeline
from agelex.synthetic import make_corpus

from oracles import NESTED_TOO_DEEPLY


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_corpus(make_corpus(n_children=12, n_adult=12, seed=3), path)
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("model")
    rc = main(["train", "--corpus", str(corpus_file), "--out", str(out),
               "--model", "lsvc", "--features", "general", "--no-tfidf",
               "--epochs", "50"])
    assert rc == 0
    return out / "model_lsvc.json"


def read_tsv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines]


class TestIngest:
    def test_split_assignment_and_output(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "out"
        rc = main(["ingest", "--corpus", str(corpus_file), "--out", str(out),
                   "--test-fraction", "0.25", "--seed", "5"])
        assert rc == 0
        assert "ingested 24 documents (18 train, 6 test)" in capsys.readouterr().out
        corpus = load_corpus(out / "corpus.jsonl")
        test_docs = corpus.subset(Split.TEST)
        assert len(test_docs) == 6
        # stratified: three per class
        assert sum(1 for d in test_docs if d.label is Label.CHILDREN) == 3

    def test_prints_effective_settings(self, tmp_path, corpus_file, capsys):
        rc = main(["ingest", "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "o"), "--seed", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "command = ingest" in out
        assert "seed = 5" in out

    def test_preserves_splits_without_fraction(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        assert main(["ingest", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        original = load_corpus(corpus_file)
        copied = load_corpus(out / "corpus.jsonl")
        assert [d.split for d in copied] == [d.split for d in original]


class TestConfigFile:
    def test_flag_beats_file_beats_default(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# grid settings\nseed = 9\ntrees = 25\nmodel = rf\n")
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--config", str(cfg), "--trees", "10", "--features", "general",
                   "--no-tfidf"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed = 9" in out        # file overrides default 42
        assert "trees = 10" in out      # flag overrides file 25
        assert "model = rf" in out
        assert (tmp_path / "o" / "model_rf.json").exists()

    def test_malformed_line_is_reported(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed 9\n")
        rc = main(["ingest", "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        rc = main(["ingest", "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 1
        assert "mystery" in capsys.readouterr().err

    def test_svd_on_rejected(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "svd.cfg"
        cfg.write_text("svd = on\n")
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: config key 'svd': expected one of "
                                                  "['auto', 'off'], got 'on'")

    @pytest.mark.parametrize("command", ["evaluate", "informativeness"])
    def test_bad_split_rejected(self, tmp_path, corpus_file, model_file, command, capsys):
        # argparse choices do not see values that come from the file
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("split = bogus\n")
        argv = [command, "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                "--config", str(cfg)]
        if command == "evaluate":
            argv += ["--model-file", str(model_file)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "split" in err and "bogus" in err


    @pytest.mark.parametrize("command, lines, table", [
        ("stats", "frequency = {missing}\nheuristic_morph = yes\n", "stats.tsv"),
        ("extract", "stopwords = {missing}\n", "features.tsv"),
    ], ids=["stats", "extract"])
    def test_settings_the_command_does_not_declare_are_not_read(self, tmp_path, corpus_file,
                                                                command, lines, table):
        # one config file can serve every command; each reads only its own keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines.format(missing=tmp_path / "missing.txt"))
        default, configured = tmp_path / "default", tmp_path / "configured"
        assert main([command, "--corpus", str(corpus_file), "--out", str(default)]) == 0
        assert main([command, "--corpus", str(corpus_file), "--out", str(configured),
                     "--config", str(cfg)]) == 0
        assert (configured / table).read_bytes() == (default / table).read_bytes()


def command_argv(command, corpus_file, model_file, out):
    """A quick run of each command on the shared corpus."""
    base = ["--out", str(out)]
    corpus = ["--corpus", str(corpus_file)]
    return {
        "ingest": ["ingest", *corpus, *base, "--test-fraction", "0.25"],
        "stats": ["stats", *corpus, *base],
        "extract": ["extract", *corpus, *base],
        "train": ["train", *corpus, *base, "--features", "general", "--epochs", "5"],
        "evaluate": ["evaluate", *corpus, *base, "--model-file", str(model_file)],
        "grid": ["grid", *corpus, *base, "--models", "lsvc", "--epochs", "5"],
        "informativeness": ["informativeness", *corpus, *base],
        "correlations": ["correlations", *corpus, *base],
        "classify": ["classify", "--model-file", str(model_file), "--text", "Кот спит."],
    }[command]


@pytest.mark.parametrize("command", ["ingest", "stats", "extract", "train", "evaluate",
                                     "grid", "informativeness", "correlations", "classify"])
def test_every_setting_read_is_printed(tmp_path, corpus_file, model_file, command,
                                       monkeypatch, capsys):
    # every read of a setting on any namespace, argparse's own included
    read = set()
    original = argparse.Namespace.__getattribute__

    def recording(self, key):
        if key in agelex.cli._SETTINGS:
            read.add(key)
        return original(self, key)

    monkeypatch.setattr(argparse.Namespace, "__getattribute__", recording)
    assert main(command_argv(command, corpus_file, model_file, tmp_path / "o")) == 0
    printed = set()
    for line in capsys.readouterr().out.splitlines():
        match = re.match(r"(\w+) = ", line)
        if not match:
            break  # the settings block ends at the first other line
        printed.add(match.group(1))
    assert read and read <= printed, sorted(read - printed)


RESOURCE_KEYS = {"morphology", "frequency", "sentiment", "top5000", "familiar",
                 "stopwords", "abbreviations", "coefficients", "heuristic_morph"}
FIT_KEYS = {"svd", "svd_target", "c", "epochs", "tolerance", "trees", "max_terms",
            "fragment_limit"}
# each command declares only the settings that can change what it writes
# or prints: stats reads no morphology, and only the tf-idf reads stopwords
FEATURE_RESOURCE_KEYS = RESOURCE_KEYS - {"stopwords"}
SETTINGS_BLOCKS = {
    "ingest": {"seed", "out", "corpus", "test_fraction"},
    "stats": {"out", "corpus", "abbreviations"},
    "extract": {"out", "corpus", *FEATURE_RESOURCE_KEYS},
    "train": {"seed", "out", "corpus", *RESOURCE_KEYS, *FIT_KEYS, "model", "features",
              "tfidf", "abstracts", "positive_class"},
    "evaluate": {"out", "corpus", *RESOURCE_KEYS, "split", "positive_class"},
    "grid": {"seed", "out", "corpus", *RESOURCE_KEYS, *FIT_KEYS, "models"},
    "informativeness": {"out", "corpus", *FEATURE_RESOURCE_KEYS, "intervals", "families",
                        "split"},
    "correlations": {"out", "corpus", *FEATURE_RESOURCE_KEYS, "families", "split"},
    "classify": RESOURCE_KEYS,
}


@pytest.mark.parametrize("command", sorted(SETTINGS_BLOCKS))
def test_settings_block_lists_the_declared_settings(tmp_path, corpus_file, model_file,
                                                    command, monkeypatch, capsys):
    monkeypatch.setattr(agelex.cli, f"cmd_{command}", lambda opts: 0)
    assert main(command_argv(command, corpus_file, model_file, tmp_path / "o")) == 0
    first, *lines = capsys.readouterr().out.splitlines()
    assert first == f"command = {command}"
    assert [line.split(" = ")[0] for line in lines] == sorted(SETTINGS_BLOCKS[command])


@pytest.mark.parametrize("route", ["corpus", "config", "input", "morphology", "frequency",
                                   "sentiment", "top5000", "familiar", "stopwords",
                                   "abbreviations", "coefficients"])
def test_file_that_is_not_utf8_is_an_error(tmp_path, corpus_file, model_file, route, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe" + "кот".encode("utf-16-le"))
    out = ["--out", str(tmp_path / "o")]
    if route == "corpus":
        argv = ["stats", "--corpus", str(bad), *out]
    elif route in ("config", "abbreviations"):
        argv = ["stats", "--corpus", str(corpus_file), f"--{route}", str(bad), *out]
    elif route == "input":
        argv = ["classify", "--model-file", str(model_file), "--input", str(bad)]
    else:  # a resource that stats does not read
        argv = ["classify", "--model-file", str(model_file), "--text", "Кот спит.",
                f"--{route}", str(bad)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}: not UTF-8 text" in err


@pytest.mark.parametrize("route", ["corpus", "model-file", "coefficients"])
def test_json_nested_too_deeply_is_an_error(tmp_path, corpus_file, model_file, route, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(NESTED_TOO_DEEPLY, encoding="utf-8")
    if route == "corpus":
        argv = ["stats", "--corpus", str(deep), "--out", str(tmp_path / "o")]
    elif route == "model-file":
        argv = ["classify", "--model-file", str(deep), "--text", "Кот спит."]
    else:
        argv = ["classify", "--model-file", str(model_file), "--text", "Кот спит.",
                "--coefficients", str(deep)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1


class TestStats:
    def test_table_rows_per_label_and_split(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "out"
        assert main(["stats", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        rows = read_tsv(out / "stats.tsv")
        assert rows[0][:3] == ["label", "split", "count"]
        assert len(rows) == 1 + 4  # two labels x two splits
        printed = capsys.readouterr().out
        assert "children" in printed and "adult" in printed


class TestExtract:
    def test_feature_table_shape(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        assert main(["extract", "--corpus", str(corpus_file), "--out", str(out)]) == 0
        rows = read_tsv(out / "features.tsv")
        assert rows[0] == ["id", "label", "split"] + list(ALL_FEATURE_NAMES)
        assert len(rows) == 1 + 24

    def test_rerun_is_byte_identical(self, tmp_path, corpus_file):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["extract", "--corpus", str(corpus_file), "--out", str(a)])
        main(["extract", "--corpus", str(corpus_file), "--out", str(b)])
        assert (a / "features.tsv").read_bytes() == (b / "features.tsv").read_bytes()


    @pytest.mark.parametrize("value", ['"abc"', "null", "true"])
    def test_coefficient_that_is_not_a_number_is_an_error(self, tmp_path, corpus_file, value,
                                                          capsys):
        coefficients = tmp_path / "c.json"
        coefficients.write_text('{"ari": {"base": 1, "chars_per_word": %s, '
                                '"words_per_sentence": 0.5}}' % value, encoding="utf-8")
        rc = main(["extract", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--coefficients", str(coefficients)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {coefficients}: ari.chars_per_word is not a number")

    def test_negative_smog_norm_is_an_error(self, tmp_path, corpus_file, capsys):
        coefficients = tmp_path / "c.json"
        coefficients.write_text('{"smog": {"base": 3, "scale": 1, "norm": -30}}', encoding="utf-8")
        rc = main(["extract", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--coefficients", str(coefficients)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {coefficients}: smog.norm")

class TestTrainEvaluate:
    def test_model_file_written(self, model_file):
        payload = json.loads(model_file.read_text())
        assert payload["kind"] == "pipeline"
        assert payload["format_version"] == 1

    def test_same_seed_reproduces_model_bytes(self, tmp_path, corpus_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["train", "--corpus", str(corpus_file), "--out", str(out),
                  "--model", "lsvc", "--features", "general", "--no-tfidf",
                  "--epochs", "50"])
            outs.append((out / "model_lsvc.json").read_bytes())
        assert outs[0] == outs[1]

    def test_evaluate_writes_metrics_row(self, tmp_path, corpus_file, model_file, capsys):
        out = tmp_path / "out"
        rc = main(["evaluate", "--corpus", str(corpus_file),
                   "--model-file", str(model_file), "--out", str(out),
                   "--split", "test"])
        assert rc == 0
        rows = read_tsv(out / "metrics.tsv")
        assert rows[0][:6] == ["split", "n", "accuracy", "precision", "recall", "f1"]
        assert rows[1][0] == "test"
        assert rows[1][1] == "6"
        assert "accuracy=" in capsys.readouterr().out

    def test_positive_class_flag(self, tmp_path, corpus_file, model_file, capsys):
        rc = main(["evaluate", "--corpus", str(corpus_file),
                   "--model-file", str(model_file), "--out", str(tmp_path / "o"),
                   "--split", "train", "--positive-class", "adult"])
        assert rc == 0
        assert "(positive class: adult)" in capsys.readouterr().out

    def test_train_positive_class_flag(self, tmp_path, corpus_file, capsys):
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path),
                   "--features", "general", "--no-tfidf", "--positive-class", "adult"])
        assert rc == 0
        assert "(positive class: adult)" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["lsvc", "rf"])
    def test_train_defaults_are_the_library_defaults(self, tmp_path, corpus_file, resources,
                                                     kind):
        assert main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path),
                     "--model", kind]) == 0
        library = tmp_path / "library.json"
        save_model(train_pipeline(load_corpus(corpus_file), resources, Recipe(), kind,
                                  TrainSettings()), library)
        assert (tmp_path / f"model_{kind}.json").read_bytes() == library.read_bytes()

    @pytest.mark.parametrize("c", ["nan", "inf", "0"])
    def test_c_must_be_positive_and_finite(self, tmp_path, corpus_file, c, capsys):
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path),
                   "--features", "general", "--c", c])
        assert rc == 1
        assert "error: C must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_tolerance_must_be_non_negative(self, tmp_path, corpus_file, tolerance, capsys):
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path),
                   "--model", "lsvc", "--features", "general", "--tolerance", tolerance])
        assert rc == 1
        assert "error: tolerance must be >= 0 and finite" in capsys.readouterr().err
        assert not (tmp_path / "model_lsvc.json").exists()

    @pytest.mark.parametrize("flags", [["--model", "rf"], ["--model", "lsvc", "--svd", "off"]])
    def test_fragments_without_lemmas_are_an_error(self, tmp_path, flags, capsys):
        # every word is a stopword, so the tf-idf would have no terms
        corpus = make_corpus(n_children=4, n_adult=4, seed=1)
        path = tmp_path / "stopwords.jsonl"
        write_corpus(Corpus([replace(d, text="И в во. И в!") for d in corpus]), path)
        rc = main(["train", "--corpus", str(path), "--out", str(tmp_path / "o")] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot fit tf-idf: no training fragment has a lemma")

    def test_fragment_limit_must_be_positive(self, tmp_path, corpus_file, capsys):
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--fragment-limit", "0"])
        assert rc == 1
        assert "error: fragment limit must be positive" in capsys.readouterr().err

    def test_fragment_limit_must_be_positive_without_tfidf(self, tmp_path, corpus_file, capsys):
        # the limit is saved in the artifact even when no tf-idf reads it
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--no-tfidf", "--features", "general", "--fragment-limit", "0"])
        assert rc == 1
        assert "error: fragment limit must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o" / "model_rf.json").exists()

    def test_negative_forest_seed_is_an_error(self, tmp_path, corpus_file, capsys):
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path / "o"),
                   "--model", "rf", "--features", "general", "--no-tfidf", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer, got -1")
        assert not (tmp_path / "o" / "model_rf.json").exists()

    def test_unknown_family_rejected(self, tmp_path, corpus_file, capsys):
        rc = main(["train", "--corpus", str(corpus_file),
                   "--out", str(tmp_path / "o"), "--features", "bogus"])
        assert rc == 1
        assert "unknown feature families" in capsys.readouterr().err

    def test_evaluate_reports_documents_without_dictionary_matches(
            self, tmp_path, corpus_file, model_file, capsys):
        corpus = load_corpus(corpus_file)
        odd = Document(id="no-matches", text="Zzyx qwop blorf. Grelt vunk.",
                       label=Label.ADULT, split=Split.TEST)
        path = tmp_path / "corpus.jsonl"
        write_corpus(Corpus(corpus.documents + [odd]), path)
        rc = main(["evaluate", "--corpus", str(path), "--model-file", str(model_file),
                   "--out", str(tmp_path / "o"), "--split", "test"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "warning: 1 documents had no frequency-dictionary matches"

    def test_schema_mismatch_detected(self, tmp_path, corpus_file, model_file, capsys):
        payload = json.loads(model_file.read_text())
        payload["model"]["feature_schema"] = "0" * 64
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(payload))
        rc = main(["evaluate", "--corpus", str(corpus_file),
                   "--model-file", str(doctored), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "feature schema mismatch" in err and str(doctored) in err

    @pytest.mark.parametrize("epochs, ending", [("1", " = 1, not converged"),
                                                ("200", ", converged")])
    def test_train_reports_solver_convergence(self, tmp_path, corpus_file, epochs, ending,
                                              capsys):
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path),
                   "--model", "lsvc", "--features", "general", "--epochs", epochs])
        assert rc == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("solver: Newton iterations = ")]
        assert len(lines) == 1 and lines[0].endswith(ending)

    @pytest.mark.parametrize("flags", [["--model", "lsvc"], ["--model", "lsvc", "--svd", "off"],
                                       ["--model", "rf", "--trees", "5"]],
                             ids=["lsvc", "lsvc-svd-off", "rf"])
    def test_train_reports_the_folded_svd(self, tmp_path, corpus_file, flags, capsys):
        rc = main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path),
                   "--features", "general"] + flags)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        svd_lines = [i for i, line in enumerate(lines) if line.startswith("svd: ")]
        if flags != ["--model", "lsvc"]:
            assert svd_lines == []
            return
        assert len(svd_lines) == 1
        assert lines[svd_lines[0] - 1].startswith("solver: Newton iterations = ")
        model = json.loads((tmp_path / "model_lsvc.json").read_text())["model"]["model"]["payload"]
        svd = model["hyperparams"]["svd"]
        assert lines[svd_lines[0]] == (f"svd: k = {svd['k']} of {len(model['weights'])} columns, "
                                       f"retained {svd['retained']:.4f} (target 0.95)")

    def test_svd_on_is_not_a_choice(self, tmp_path, corpus_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--corpus", str(corpus_file), "--out", str(tmp_path), "--svd", "on"])
        assert excinfo.value.code != 0
        assert "invalid choice: 'on'" in capsys.readouterr().err


class TestClassify:
    TEXT = "Мама мыла раму. Кот спит на окне. Маша читает книгу."

    def test_label_and_score_printed(self, model_file, capsys):
        rc = main(["classify", "--model-file", str(model_file), "--text", self.TEXT])
        assert rc == 0
        out = capsys.readouterr().out
        assert "label = " in out and "margin = " in out

    def test_explain_lists_every_feature(self, model_file, capsys):
        rc = main(["classify", "--model-file", str(model_file), "--text", self.TEXT,
                   "--explain"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line.split(" = ")[0].strip() for line in lines
                 if line.startswith("  ") and " = " in line]
        for feature in ALL_FEATURE_NAMES:
            assert feature in names

    def test_explain_analyzes_the_text_once(self, model_file, monkeypatch, capsys):
        calls = []
        original = agelex.features.analyze

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(agelex.features, "analyze", counted)
        rc = main(["classify", "--model-file", str(model_file), "--text", self.TEXT,
                   "--explain"])
        assert rc == 0
        assert calls == [self.TEXT]
        assert "avg_words_len = " in capsys.readouterr().out

    def test_stress_marks_change_nothing(self, model_file, capsys):
        printed = []
        for text in ("Ма\u0301ма мы\u0301ла ра\u0301му. Кот спит.", "Мама мыла раму. Кот спит."):
            assert main(["classify", "--model-file", str(model_file), "--text", text,
                         "--explain"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_age_rating_flag_reaches_features(self, model_file, capsys):
        rc = main(["classify", "--model-file", str(model_file), "--text", self.TEXT,
                   "--age-rating", "6+", "--explain"])
        assert rc == 0
        assert "age_rating_6 = 1.000000" in capsys.readouterr().out

    def test_input_file(self, tmp_path, model_file, capsys):
        src = tmp_path / "text.txt"
        src.write_text(self.TEXT, encoding="utf-8")
        rc = main(["classify", "--model-file", str(model_file), "--input", str(src)])
        assert rc == 0
        assert "label = " in capsys.readouterr().out

    @pytest.mark.parametrize("data, rc, expected", [
        (TEXT.encode("utf-8"), 0, "label = "),
        (b"\xff\xfe\x00k", 1, "error: <stdin>: not UTF-8 text: "),
    ], ids=["utf8", "not-utf8"])
    def test_stdin_must_be_utf8(self, model_file, data, rc, expected):
        # in the C locale Python decodes text-mode stdin with surrogateescape
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        src = str(Path(agelex.cli.__file__).resolve().parents[1])
        env.update(LC_ALL="C", PYTHONPATH=os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "agelex.cli", "classify", "--model-file", str(model_file)],
            input=data, capture_output=True, env=env)
        assert proc.returncode == rc, proc.stderr
        assert expected in (proc.stdout if rc == 0 else proc.stderr).decode("utf-8")

    def test_empty_text_is_an_error(self, model_file, capsys):
        rc = main(["classify", "--model-file", str(model_file), "--text", "   "])
        assert rc == 1
        assert "error: empty text" in capsys.readouterr().err

    def test_missing_model_file(self, capsys):
        rc = main(["classify", "--model-file", "/nonexistent/model.json",
                   "--text", self.TEXT])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestGrid:
    def test_all_conditions_reported(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "out"
        rc = main(["grid", "--corpus", str(corpus_file), "--out", str(out),
                   "--models", "lsvc", "--epochs", "30"])
        assert rc == 0
        rows = read_tsv(out / "grid.tsv")
        assert rows[0] == ["model", "condition", "accuracy", "f1", "precision", "recall"]
        assert len(rows) == 1 + 18
        assert rows[1][1] == "baseline"
        assert all(r[0] == "lsvc" for r in rows[1:])
        assert "18 conditions x 1 models" in capsys.readouterr().out

    def test_empty_model_list_is_an_error(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "o"
        rc = main(["grid", "--corpus", str(corpus_file), "--out", str(out), "--models", ","])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "grid.tsv").exists()

    def test_negative_forest_seed_is_an_error(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "o"
        rc = main(["grid", "--corpus", str(corpus_file), "--out", str(out), "--models", "rf",
                   "--trees", "3", "--seed", "-5"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer, got -5")
        assert not (out / "grid.tsv").exists()

    def test_needs_test_split(self, tmp_path, capsys):
        corpus = make_corpus(n_children=4, n_adult=4, seed=1, test_fraction=0.0)
        path = tmp_path / "train_only.jsonl"
        write_corpus(corpus, path)
        rc = main(["grid", "--corpus", str(path), "--out", str(tmp_path / "o"),
                   "--models", "lsvc"])
        assert rc == 1
        assert "no test documents" in capsys.readouterr().err


class TestRankingCommands:
    def test_informativeness_table(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "out"
        rc = main(["informativeness", "--corpus", str(corpus_file), "--out", str(out)])
        assert rc == 0
        rows = read_tsv(out / "informativeness.tsv")
        assert rows[0][0] == "feature"
        assert len(rows) == 1 + 51  # quantitative features only
        scores = [float(r[1]) for r in rows[1:]]
        assert scores == sorted(scores, reverse=True)
        assert "top 10" in capsys.readouterr().out

    def test_correlations_family_subset(self, tmp_path, corpus_file):
        out = tmp_path / "out"
        rc = main(["correlations", "--corpus", str(corpus_file), "--out", str(out),
                   "--families", "readability"])
        assert rc == 0
        rows = read_tsv(out / "correlations.tsv")
        assert len(rows) == 1 + 5
        assert rows[1][0] == "index_fk"
        assert float(rows[1][1]) == pytest.approx(1.0)


class TestSyntheticModule:
    def test_generator_cli(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "agelex.synthetic", "--out", str(path),
             "--children", "3", "--adult", "3", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        corpus = load_corpus(path)
        assert len(corpus) == 6
        assert sum(1 for d in corpus if d.label is Label.CHILDREN) == 3
