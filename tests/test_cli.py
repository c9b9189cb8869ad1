"""End-to-end command-line behavior: flags, exit codes, file contracts."""

import argparse
import csv
import io
import json
import logging
import os
import re
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import opinionpulse
from conftest import make_separable, msg, write_corpus, write_labels
from opinionpulse import __version__
from opinionpulse.cli import build_parser, main
from opinionpulse.corpus import ingest
from opinionpulse.exceptions import InputError
from opinionpulse.polarity import load_lexicon, score_stream, toy_lexicon_path
from opinionpulse.stance import evaluation
from opinionpulse.stance import train as stance_train
from opinionpulse.stance.data import LABELS
from opinionpulse.timeseries import sentiment_series, write_value_csv
from opinionpulse.timeseries import DEFAULT_TZ

SUBCOMMANDS = (
    "filter", "expand-query", "sentiment", "timeseries", "annotate-sample",
    "kappa", "train", "grid-search", "learning-curve", "predict",
    "stance-series", "correlate",
)

FIVE_MESSAGES = [
    msg("de corona cijfers vallen mee vandaag", id="a", ts="2020-03-11T10:00:00Z"),
    msg("mooi weer vandaag, goed humeur", id="b", ts="2020-03-11T14:30:00Z"),
    msg("corona houdt iedereen bezig, slecht nieuws", id="c", ts="2020-03-12T09:10:00Z"),
    msg("lekker gefietst door de stad", id="d", ts="2020-03-12T14:30:00Z"),
    msg("het blijft mooi weer", id="e", ts="2020-03-13T08:00:00Z"),
]

FAST_MODEL_FLAGS = ["--dim", "16", "--epochs", "25", "--lr", "0.3", "--bucket", "2000"]


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, FIVE_MESSAGES)
    return path


@pytest.fixture
def labels_file(tmp_path):
    path = tmp_path / "labels.tsv"
    write_labels(path, make_separable(60, seed=13))
    return path


@pytest.fixture
def malformed_corpus(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_corpus(path, FIVE_MESSAGES)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(2, "not json\n")
    path.write_text("".join(lines), encoding="utf-8")
    return path


def train_fast_model(labels_file, model_path) -> None:
    argv = ["train", "--labels", str(labels_file), "--out", str(model_path)]
    assert main(argv + FAST_MODEL_FLAGS) == 0


# every input-file flag of every subcommand
INPUT_FILE_FLAGS = [
    ("filter", "--in"), ("filter", "--query"),
    ("expand-query", "--in"), ("expand-query", "--query"),
    ("sentiment", "--in"), ("sentiment", "--lexicon"),
    ("timeseries", "--in"), ("timeseries", "--events"),
    ("annotate-sample", "--in"), ("annotate-sample", "--query"),
    ("kappa", "--a"), ("kappa", "--b"),
    ("train", "--labels"), ("grid-search", "--labels"), ("learning-curve", "--labels"),
    ("predict", "--model"), ("predict", "--in"),
    ("stance-series", "--in"),
    ("correlate", "--a"), ("correlate", "--b"),
]


# every output-file flag of every subcommand
OUTPUT_FILE_FLAGS = [
    ("filter", "--out"), ("filter", "--unmatched-out"), ("filter", "--stats"),
    ("expand-query", "--out"),
    ("sentiment", "--out"), ("sentiment", "--summary"),
    ("timeseries", "--out"), ("timeseries", "--events-out"),
    ("annotate-sample", "--out"),
    ("train", "--out"), ("grid-search", "--out"), ("learning-curve", "--out"),
    ("predict", "--out"),
    ("stance-series", "--out"),
    ("correlate", "--out"),
]


# input-file flags whose file is read as UTF-8 text: a corpus rejects an
# undecodable line instead, a model file is binary, and timeseries --in
# is read as a scored CSV here (--kind sentiment)
TEXT_FILE_FLAGS = [(command, flag) for command, flag in INPUT_FILE_FLAGS
                   if flag not in ("--in", "--model")] + [("stance-series", "--in"),
                                                          ("timeseries", "--in")]

SCORED_CSV = "id,timestamp,value,hits\na,2020-03-11T10:00:00Z,0.5,1\nb,2020-03-12T10:00:00Z,0.25,1\n"


def _with_flag(argv, flag, value):
    """``argv`` with ``flag`` set to ``value``, replaced or appended."""
    if flag not in argv:
        return [*argv, flag, value]
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


@pytest.fixture(scope="module")
def valid_runs(tmp_path_factory):
    """argv (without the command) of a run that succeeds, writing to ``out``."""
    root = tmp_path_factory.mktemp("inputs")
    corpus, query, events = root / "c.jsonl", root / "q.json", root / "events.json"
    labels, model, labeled, series = (root / "l.tsv", root / "m.bin", root / "lab.jsonl",
                                      root / "s.csv")
    write_corpus(corpus, FIVE_MESSAGES)
    query.write_text('{"name": "q", "keywords": ["corona"]}', encoding="utf-8")
    events.write_text('[{"date": "2020-03-12", "label": "x"}]', encoding="utf-8")
    write_labels(labels, make_separable(60, seed=13))
    train_fast_model(labels, model)
    labeled.write_text('{"created_at": "2020-03-11T10:00:00Z", "stance": "other"}\n',
                       encoding="utf-8")
    series.write_text("date,value\n2020-03-11,1\n2020-03-12,3\n2020-03-13,2\n",
                      encoding="utf-8")
    c, q, lab = str(corpus), str(query), str(labels)

    def argv(command, out):
        return {
            "filter": ["--in", c, "--query", q, "--out", out],
            "expand-query": ["--in", c, "--query", q, "--min-count", "1", "--out", out],
            "sentiment": ["--in", c, "--lexicon", str(toy_lexicon_path()), "--out", out],
            "timeseries": ["--kind", "frequency", "--in", c, "--events", str(events),
                           "--events-out", out + ".events", "--out", out],
            "annotate-sample": ["--in", c, "--query", q, "--n", "1", "--out", out],
            "kappa": ["--a", lab, "--b", lab],
            "train": ["--labels", lab, *FAST_MODEL_FLAGS, "--out", out],
            "grid-search": ["--labels", lab, "--dims", "16", "--epochs", "25", "--lrs", "0.3",
                            "--bucket", "2000", "--out", out],
            "learning-curve": ["--labels", lab, *FAST_MODEL_FLAGS, "--sizes", "20,40",
                               "--out", out],
            "predict": ["--model", str(model), "--in", c, "--out", out],
            "stance-series": ["--in", str(labeled), "--out", out],
            "correlate": ["--a", str(series), "--b", str(series), "--out", out],
        }[command]

    return argv


class TestHelpAndVersion:
    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        assert "filter" in capsys.readouterr().out

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help(self, command, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--seed" in out

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "opinionpulse" in capsys.readouterr().out

    def test_module_run_prints_version(self):
        src = str(Path(opinionpulse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "opinionpulse.cli", "--version"],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0
        assert result.stdout == f"opinionpulse {__version__}\n"


# (option strings, dest, default, required, choices, nargs, help) of every action,
# in parser order; written from the parser as it was before build_parser declared
# each subcommand in one call, so a rewrite of the parser cannot change its surface
_COMMON_ROWS = [
    (("-h", "--help"), "help", "==SUPPRESS==", False, None, 0, "show this help message and exit"),
    (("--seed",), "seed", 42, False, None, None, "seed for anything random (default 42)"),
    (("--log",), "log", False, False, None, 0, "emit a JSON-lines run log on stderr"),
]
_CORPUS_ROWS = [
    (("--in",), "infile", None, True, None, None, "input corpus file"),
    (("--format",), "format", None, False, ("jsonl", "tsv"), None, "corpus format (default jsonl)"),
]
_QUERY_ROWS = [
    (("--query",), "query", None, False, None, None, "topic query JSON file"),
    (("--builtin",), "query", None, False, None, None,
     "shipped query: table2 (alias pandemic) or socialdistancing (alias social-distancing)"),
]
_HASH_ROWS = [
    (("--char-ngram-min",), "char_ngram_min", 3, False, None, None,
     "shortest hashed character n-gram (default %(default)s)"),
    (("--char-ngram-max",), "char_ngram_max", 6, False, None, None,
     "longest hashed character n-gram (default %(default)s)"),
    (("--bucket",), "bucket", 2000000, False, None, None,
     "hash buckets for character n-grams (default %(default)s)"),
]
_HYPERPARAM_ROWS = [
    (("--dim",), "dim", 10, False, None, None, "embedding width (default %(default)s)"),
    (("--epochs",), "epochs", 10, False, None, None, "training epochs (default %(default)s)"),
    (("--lr",), "lr", 0.2, False, None, None, "initial learning rate (default %(default)s)"),
    *_HASH_ROWS,
]
_TZ_ROW = (("--tz",), "tz", "+01:00", False, None, None,
           "bucketing offset (default +01:00); give a negative one as --tz=-05:30")
PARSER_SURFACE = {
    "filter": ("cmd_filter", [
        *_CORPUS_ROWS, *_QUERY_ROWS,
        (("--out",), "out", None, True, None, None, "matched messages, JSONL"),
        (("--unmatched-out",), "unmatched_out", None, False, None, None,
         "optional JSONL for the rest"),
        (("--stats",), "stats", None, False, None, None, "optional ingest-stats JSON"),
        (("--lang",), "lang", None, False, None, None,
         "keep only this language tag (plus untagged)"),
        (("--dedup",), "dedup", "none", False, ("none", "by_id", "by_exact_text"), None,
         "duplicate removal before filtering (default none)"),
        (("--drop-reposts",), "drop_reposts", False, False, None, 0,
         "skip reposts instead of counting them"),
    ]),
    "expand-query": ("cmd_expand_query", [
        *_CORPUS_ROWS, *_QUERY_ROWS,
        (("--top-k",), "top_k", 20, False, None, None, "candidates per round (default 20)"),
        (("--min-count",), "min_count", 5, False, None, None,
         "minimum matched-side count for a candidate (default 5)"),
        (("--out",), "out", None, False, None, None, "report JSON (default stdout)"),
    ]),
    "sentiment": ("cmd_sentiment", [
        *_CORPUS_ROWS,
        (("--lexicon",), "lexicon", None, False, None, None, "lexicon TSV (term<TAB>score)"),
        (("--toy-lexicon",), "lexicon", None, False, None, 0, "use the shipped toy lexicon"),
        (("--out",), "out", None, True, None, None, "scored CSV (id,timestamp,value,hits)"),
        (("--summary",), "summary", None, False, None, None, "optional summary JSON"),
    ]),
    "timeseries": ("cmd_timeseries", [
        (("--kind",), "kind", None, True, ("frequency", "sentiment"), None, None),
        (("--in",), "infile", None, True, None, None,
         "corpus file (frequency) or scored CSV (sentiment)"),
        (("--format",), "format", None, False, ("jsonl", "tsv"), None,
         "corpus format for --kind frequency (default jsonl)"),
        (("--bucket",), "bucket", "day", False, ("day", "hour"), None, None),
        _TZ_ROW,
        (("--out",), "out", None, True, None, None, "series CSV"),
        (("--ma",), "ma", None, False, None, None, "moving-average window (emits bucket,mean,n)"),
        (("--centered",), "centered", False, False, None, 0,
         "center the moving-average window instead of trailing"),
        (("--events",), "events", None, False, None, None, "events JSON to attach to buckets"),
        (("--events-out",), "events_out", None, False, None, None,
         "where to write the event-marker report"),
        (("--drop-reposts",), "drop_reposts", False, False, None, 0,
         "frequency only: skip reposts"),
        (("--nonzero-only",), "nonzero_only", False, False, None, 0,
         "sentiment only: drop zero-score messages before averaging"),
    ]),
    "annotate-sample": ("cmd_annotate_sample", [
        *_CORPUS_ROWS, *_QUERY_ROWS,
        (("--rate",), "rate", None, False, None, None, "per-message sampling rate in (0,1]"),
        (("--n",), "n", None, False, None, None, "exact sample size"),
        (("--out",), "out", None, True, None, None,
         "annotation TSV template (empty label column)"),
    ]),
    "kappa": ("cmd_kappa", [
        (("--a",), "a", None, True, None, None, "first annotator's TSV"),
        (("--b",), "b", None, True, None, None, "second annotator's TSV"),
    ]),
    "train": ("cmd_train", [
        (("--labels",), "labels", None, True, None, None, "label<TAB>text training file"),
        *_HYPERPARAM_ROWS,
        (("--out",), "out", None, True, None, None, "model file"),
    ]),
    "grid-search": ("cmd_grid_search", [
        (("--labels",), "labels", None, True, None, None, "label<TAB>text file"),
        (("--objective",), "objective", "fraction_score", False,
         ("accuracy", "fraction_score"), None, None),
        (("--dims",), "dims", [10], False, None, None, "comma list, each in [10,300]"),
        (("--epochs",), "epochs", [10], False, None, None, "comma list, each in [10,500]"),
        (("--lrs",), "lrs", [0.2], False, None, None, "comma list, each in [0.05,1.0]"),
        *_HASH_ROWS,
        (("--out",), "out", None, False, None, None, "report JSON (default stdout)"),
    ]),
    "learning-curve": ("cmd_learning_curve", [
        (("--labels",), "labels", None, True, None, None, "label<TAB>text file"),
        *_HYPERPARAM_ROWS,
        (("--sizes",), "sizes", None, True, None, None, "comma list of increasing training sizes"),
        (("--repeats",), "repeats", 1, False, None, None, "repeats per size (default 1)"),
        (("--test-size",), "test_size", None, False, None, None,
         "held-out size (default: everything beyond the largest train size)"),
        (("--out",), "out", None, False, None, None, "curve CSV (default stdout)"),
    ]),
    "predict": ("cmd_predict", [
        (("--model",), "model", None, True, None, None, "model file from train"),
        (("--text",), "text", None, False, None, None, "classify this text and print JSON"),
        (("--in",), "infile", None, False, None, None, "corpus to label"),
        (("--format",), "format", None, False, ("jsonl", "tsv"), None, None),
        (("--out",), "out", None, False, None, None, "labeled JSONL (required with --in)"),
    ]),
    "stance-series": ("cmd_stance_series", [
        (("--in",), "infile", None, True, None, None, "labeled JSONL from predict"),
        (("--bucket",), "bucket", "day", False, ("day", "week", "month"), None, None),
        _TZ_ROW,
        (("--out",), "out", None, True, None, None, "stance CSV"),
    ]),
    "correlate": ("cmd_correlate", [
        (("--a",), "a", None, True, None, None, "first series CSV"),
        (("--b",), "b", None, True, None, None, "second series CSV (may be date,value)"),
        (("--out",), "out", None, False, None, None, "optional result JSON"),
    ]),
}


class TestParserSurface:
    def test_every_subcommand_keeps_its_flags_and_function(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert list(sub.choices) == list(SUBCOMMANDS) == list(PARSER_SURFACE)
        for name, parser in sub.choices.items():
            func, rows = PARSER_SURFACE[name]
            assert parser.get_default("func").__name__ == func, name
            assert [(tuple(a.option_strings), a.dest, a.default, a.required, a.choices,
                     a.nargs, a.help) for a in parser._actions] == [*_COMMON_ROWS, *rows], name


class TestImportCost:
    # runs in a fresh interpreter, because the test process has numpy loaded already
    SCRIPT = (
        "import json, sys\n"
        "import opinionpulse.cli as cli\n"
        "assert 'numpy' not in sys.modules, 'import opinionpulse.cli'\n"
        "free_runs, train_run = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "for argv in free_runs:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        "assert cli.main(train_run) == 0\n"
        "assert 'numpy' in sys.modules, 'train'\n"
        "from opinionpulse.stance import load_model, train\n"
        "assert callable(load_model) and callable(train)\n"
    )

    def test_numpy_loaded_only_where_the_model_runs(self, valid_runs, tmp_path):
        out = str(tmp_path / "out")
        free_runs = [[command, *valid_runs(command, f"{out}.{command}")]
                     for command in ("filter", "sentiment", "timeseries", "correlate",
                                     "stance-series", "annotate-sample", "expand-query",
                                     "kappa")]
        free_runs.append(["timeseries", "--kind", "sentiment", "--in", f"{out}.sentiment",
                          "--out", f"{out}.hourly", "--bucket", "hour"])
        train_run = ["train", *valid_runs("train", f"{out}.train")]
        src = str(Path(opinionpulse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(free_runs),
                                 json.dumps(train_run)],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_stance_training_never_imports_numpy_random(self):
        # numpy.random costs memory in every process that trains, grid workers included
        script = (
            "import random, sys\n"
            "from opinionpulse.stance import Hyperparams, evaluate, grid_search, train\n"
            "from opinionpulse.stance.data import LABELS, LabeledExample\n"
            "rng = random.Random(3)\n"
            "words = {label: [f'{label}{i}' for i in range(5)] for label in LABELS}\n"
            "examples = [LabeledExample(' '.join(rng.choices(words[label], k=3)), label)\n"
            "            for label in LABELS * 20]\n"
            "grid = [Hyperparams(dim=dim, epochs=2, lr=0.2, bucket=2000, seed=1)\n"
            "        for dim in (10, 12)]\n"
            "assert evaluate(train(examples, grid[0]), examples).n == len(examples)\n"
            "assert grid_search(examples, grid, seed=1).best in grid\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'numpy.random' not in sys.modules\n"
        )
        src = str(Path(opinionpulse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_evaluation_loaded_only_by_its_commands_and_no_process_pool(self, valid_runs,
                                                                        tmp_path):
        out = str(tmp_path / "out")
        runs = [[command, *valid_runs(command, f"{out}.{command}")]
                for command in ("filter", "sentiment", "timeseries", "correlate", "train",
                                "predict", "stance-series")]
        grid = ["grid-search", *valid_runs("grid-search", f"{out}.grid")]
        grid[grid.index("--dims") + 1] = "16,18"
        script = (
            "import json, sys\n"
            "import opinionpulse.cli as cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "pool = {'opinionpulse.stance.evaluation', 'concurrent.futures', 'multiprocessing'}\n"
            "assert not pool & set(sys.modules), pool & set(sys.modules)\n"
            "from opinionpulse.stance import evaluation\n"
            "evaluation._usable_cpus = lambda: 2\n"
            "assert evaluation.worker_count(2) == 2\n"
            "assert cli.main(json.loads(sys.argv[2])) == 0\n"
            "pool.discard('opinionpulse.stance.evaluation')\n"
            "assert not pool & set(sys.modules), pool & set(sys.modules)\n"
        )
        src = str(Path(opinionpulse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script, json.dumps(runs),
                                 json.dumps(grid)],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr


class TestImportFootprint:
    # fresh interpreters again: the test process has every module loaded
    SCRIPT = (
        "import json, sys\n"
        "import opinionpulse.cli as cli\n"
        "argv, forbidden = json.loads(sys.argv[1]), json.loads(sys.argv[2])\n"
        "cli.build_parser()\n"
        "if argv:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "loaded = sorted(name for name in forbidden if 'opinionpulse.' + name in sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    LIBRARY = {"corpus", "tokenization", "filterkit", "polarity", "timeseries",
               "stance.agreement", "stance.data", "stance.model", "stance.evaluation"}
    NO_STANCE = {"stance.data", "stance.model", "stance.evaluation"}
    # modules a command never calls, so must not load
    FORBIDDEN = {
        "filter": {"polarity", "timeseries", *NO_STANCE},
        "expand-query": {"polarity", "timeseries", *NO_STANCE},
        "sentiment": {"filterkit", "timeseries", *NO_STANCE},
        "timeseries": {"tokenization", "filterkit", "polarity", *NO_STANCE},
        "annotate-sample": {"polarity", "timeseries", "stance.model", "stance.evaluation"},
        "kappa": {"tokenization", "filterkit", "polarity", "timeseries", "stance.model",
                  "stance.evaluation"},
        "train": {"filterkit", "polarity", "timeseries", "stance.evaluation"},
        "grid-search": {"filterkit", "polarity", "timeseries"},
        "learning-curve": {"filterkit", "polarity", "timeseries"},
        "predict": {"filterkit", "polarity", "timeseries", "stance.evaluation"},
        "stance-series": {"tokenization", "filterkit", "polarity", "stance.model",
                          "stance.evaluation"},
        "correlate": {"corpus", "tokenization", "filterkit", "polarity", *NO_STANCE},
    }

    def run(self, argv, forbidden):
        src = str(Path(opinionpulse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(argv),
                                 json.dumps(sorted(forbidden))],
                                capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr

    def test_parser_loads_no_library_module(self):
        self.run([], self.LIBRARY)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_command_loads_only_what_it_calls(self, command, valid_runs, tmp_path):
        self.run([command, *valid_runs(command, str(tmp_path / "out"))], self.FORBIDDEN[command])

    def test_sentiment_series_loads_no_filterkit_or_stance(self, tmp_path):
        scored = tmp_path / "scored.csv"
        scored.write_text(SCORED_CSV, encoding="utf-8")
        argv = ["timeseries", "--kind", "sentiment", "--in", str(scored),
                "--out", str(tmp_path / "out")]
        self.run(argv, {"filterkit", *self.NO_STANCE})

    def test_package_defines_only_its_version(self):
        # each name is imported from its module; the package re-exports none
        names = [name for name, value in vars(opinionpulse).items()
                 if not name.startswith("__") and not isinstance(value, types.ModuleType)]
        assert names == []

    @pytest.mark.parametrize("package", [opinionpulse.stance], ids=["stance"])
    def test_every_exported_name_resolves(self, package):
        for name in package.__all__:
            value = getattr(package, name)
            module = sys.modules[f"{package.__name__}.{package._LAZY[name]}"]
            assert value is getattr(module, name)
        with pytest.raises(AttributeError):
            package.no_such_name
        from opinionpulse import corpus, filterkit, polarity, stance, timeseries, tokenization
        assert stance is opinionpulse.stance and callable(tokenization.tokenize)

    @pytest.mark.parametrize("package", ["opinionpulse.stance"])
    def test_star_import_gives_every_lazy_name(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        module = sys.modules[package]
        assert set(module._LAZY) <= namespace.keys()
        assert all(namespace[name] is getattr(module, name) for name in module.__all__)


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, corpus, tmp_path, capsys):
        argv = ["filter", "--builtin", "pandemic", "--in", str(corpus),
                "--out", str(tmp_path / "o.jsonl"), "--frobnicate"]
        assert main(argv) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        argv = ["filter", "--builtin", "pandemic", "--in", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "o.jsonl")]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_builtin_query(self, corpus, tmp_path, capsys):
        argv = ["filter", "--builtin", "nosuch", "--in", str(corpus),
                "--out", str(tmp_path / "o.jsonl")]
        assert main(argv) == 1

    def test_malformed_data_file(self, corpus, tmp_path, capsys):
        bad_lexicon = tmp_path / "lex.tsv"
        bad_lexicon.write_text("x\t1.5\n", encoding="utf-8")
        argv = ["sentiment", "--lexicon", str(bad_lexicon), "--in", str(corpus),
                "--out", str(tmp_path / "scored.csv")]
        assert main(argv) == 2
        assert "score out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("document, reason", [
        ('[1, 2]', "expected a JSON object, got list"),
        ('{"keywords": 5}', "keywords must be a list of strings"),
        ('{"keywords": ["a", 5]}', "keywords must be a list of strings"),
        ('{"keywords": ["a"], "regex": 7}', "regex must be a string, got int"),
        ('{"keywords": ["a"], "name": ["q"]}', "name must be a string, got list"),
        ('{"keywords": ["a"], "combine": 1.5}',
         "combine must be 'keywords_only' or absent, got 1.5"),
        ('{"keywords": ["corona", ""]}', "query 'q' has a blank keyword"),
    ])
    def test_query_field_of_wrong_type_exits_two(self, document, reason, corpus, tmp_path,
                                                 capsys):
        query = tmp_path / "q.json"
        query.write_text(document, encoding="utf-8")
        argv = ["filter", "--query", str(query), "--in", str(corpus),
                "--out", str(tmp_path / "o.jsonl")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: q.json: {reason}\n"

    def test_value_error_maps_to_two(self, tmp_path, capsys, monkeypatch):
        from opinionpulse.stance import agreement

        def refuse(a, b):
            raise ValueError("label sequences are empty")

        # the files pass read_paired_labels, so the ValueError comes from the library call
        monkeypatch.setattr(agreement, "kappa", refuse)
        labels = tmp_path / "a.tsv"
        labels.write_text("supports\tx\n", encoding="utf-8")
        assert main(["kappa", "--a", str(labels), "--b", str(labels)]) == 2
        assert capsys.readouterr().err == "error: label sequences are empty\n"

    @pytest.mark.parametrize("command, flag, value", [
        ("learning-curve", "--test-size", "0"),
        ("learning-curve", "--sizes", ""),
        ("grid-search", "--dims", ""),
        ("timeseries", "--tz", "+25:00"),
    ])
    def test_bad_flag_value_exits_one(self, command, flag, value, valid_runs, tmp_path, capsys):
        argv = _with_flag(valid_runs(command, str(tmp_path / "out")), flag, value)
        assert main([command, *argv, "--log"]) == 1
        err = capsys.readouterr().err
        assert f"opinionpulse {command}: error: argument {flag}: expected " in err
        assert '"event": "run"' not in err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["train", "learning-curve"])
    def test_non_finite_lr_exits_one(self, command, lr, valid_runs, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([command, *_with_flag(valid_runs(command, str(out)), "--lr", lr)]) == 1
        assert capsys.readouterr().err.endswith(
            f"opinionpulse {command}: error: argument --lr: expected a positive finite number, "
            f"got '{lr}'\n")
        assert not out.exists()

    INCREASING_SIZES = "a comma-separated list of increasing positive integers"

    @pytest.mark.parametrize("command, flag, value, expected", [
        ("train", "--dim", "0", "a positive integer"),
        ("train", "--epochs", "0", "a positive integer"),
        ("learning-curve", "--lr", "-0.1", "a positive finite number"),
        ("train", "--char-ngram-min", "0", "a positive integer"),
        ("grid-search", "--bucket", "0", "a positive integer"),
        ("grid-search", "--dims", "16,5", "a comma-separated list of integers in [10, 300]"),
        ("grid-search", "--epochs", "501", "a comma-separated list of integers in [10, 500]"),
        ("grid-search", "--lrs", "0.3,nan", "a comma-separated list of numbers in [0.05, 1.0]"),
        ("learning-curve", "--sizes", "5,3", INCREASING_SIZES),
        ("learning-curve", "--sizes", "3,3", INCREASING_SIZES),
        ("learning-curve", "--sizes", "0,5", INCREASING_SIZES),
    ])
    def test_hyperparameter_flag_fails_while_parsing(self, command, flag, value, expected,
                                                     valid_runs, tmp_path, capsys):
        out = tmp_path / "out"
        argv = _with_flag(valid_runs(command, str(out)), flag, value)
        assert main([command, *argv, "--log"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: opinionpulse {command} ")
        assert err.endswith(f"opinionpulse {command}: error: argument {flag}: "
                            f"expected {expected}, got '{value}'\n")
        assert not out.exists()

    # one case per flag a command would ignore: (command, flag dropped, flags added, reason)
    @pytest.mark.parametrize("command, drop, add, reason", [
        ("predict", "--out", [], "--in requires --out"),
        ("predict", "--in", ["--text", "x"], "--out requires --in"),
        ("timeseries", "--events-out", [], "--events requires --events-out"),
        ("timeseries", "--events", [], "--events-out requires --events"),
        ("timeseries", None, ["--centered"], "--centered requires --ma"),
        ("timeseries", None, ["--nonzero-only"], "--nonzero-only requires --kind sentiment"),
        ("timeseries", "--kind", ["--kind", "sentiment", "--drop-reposts"],
         "--drop-reposts requires --kind frequency"),
        ("predict", "--in", ["--text", "x", "--format", "tsv"], "--format requires --in"),
        ("timeseries", "--kind", ["--kind", "sentiment", "--format", "tsv"],
         "--format requires --kind frequency"),
    ])
    def test_flag_the_command_would_ignore_exits_one(self, command, drop, add, reason,
                                                      valid_runs, tmp_path, capsys):
        out = tmp_path / "out"
        argv = valid_runs(command, str(out))
        if drop is not None:
            at = argv.index(drop)
            argv = argv[:at] + argv[at + 2:]
        assert main([command, *argv, *add]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("add", [["--ma", "3", "--centered"], ["--drop-reposts"]])
    def test_flag_with_what_it_requires_runs(self, add, valid_runs, tmp_path):
        out = tmp_path / "out"
        assert main(["timeseries", *valid_runs("timeseries", str(out)), *add]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["train", "grid-search", "learning-curve"])
    def test_char_ngram_range_is_checked_after_parsing(self, command, valid_runs, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        argv = _with_flag(valid_runs(command, str(out)), "--char-ngram-max", "2")
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == "error: char_ngram_max must be >= char_ngram_min\n"
        assert not out.exists()


class TestInputFileFlags:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_valid_run_succeeds(self, command, valid_runs, tmp_path):
        # the premise of the test below: only the broken flag makes it fail
        assert main([command, *valid_runs(command, str(tmp_path / "out"))]) == 0

    @pytest.mark.parametrize("command, flag", INPUT_FILE_FLAGS)
    def test_missing_file_exits_one_before_output(self, command, flag, valid_runs,
                                                  tmp_path, capsys):
        out = tmp_path / "out"
        outputs = [out, tmp_path / "out.events"]
        for path in outputs:
            path.write_text("oude inhoud\n", encoding="utf-8")
        missing = str(tmp_path / "nope")
        assert main([command, *_with_flag(valid_runs(command, str(out)), flag, missing)]) == 1
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected an existing file, got '{missing}'" in err
        assert [p.read_text(encoding="utf-8") for p in outputs] == ["oude inhoud\n"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.events"]


    @pytest.mark.parametrize("command, flag", TEXT_FILE_FLAGS)
    def test_file_not_utf8_exits_two_naming_file_and_line(self, command, flag, valid_runs,
                                                          tmp_path, capsys):
        out = tmp_path / "out"
        outputs = [out, tmp_path / "out.events"]
        for path in outputs:
            path.write_text("oude inhoud\n", encoding="utf-8")
        argv = valid_runs(command, str(out))
        if (command, flag) == ("timeseries", "--in"):
            source = tmp_path / "scored.csv"
            source.write_text(SCORED_CSV, encoding="utf-8")
            argv = _with_flag(argv, "--kind", "sentiment")
        else:
            source = Path(argv[argv.index(flag) + 1])
        lines = source.read_bytes().splitlines(keepends=True)
        lineno = min(2, len(lines))
        line = lines[lineno - 1]
        lines[lineno - 1] = line.rstrip(b"\n") + b"\xff" + line[len(line.rstrip(b"\n")):]
        bad = tmp_path / f"bad{source.suffix}"
        bad.write_bytes(b"".join(lines))
        assert main([command, *_with_flag(argv, flag, str(bad))]) == 2
        assert capsys.readouterr().err == f"error: {bad.name}: not UTF-8 (byte 0xff), line {lineno}\n"
        assert [p.read_text(encoding="utf-8") for p in outputs] == ["oude inhoud\n"] * 2
        assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


class TestOutOfRangeTimestamps:
    HUGE = "99999999999999999999"

    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    @pytest.mark.parametrize("command", [["filter", "--builtin", "pandemic"],
                                         ["timeseries", "--kind", "frequency"]],
                             ids=["filter", "timeseries"])
    def test_corpus_line_is_rejected_and_counted(self, command, fmt, tmp_path, capsys):
        path = tmp_path / f"c.{fmt}"
        if fmt == "jsonl":
            write_corpus(path, FIVE_MESSAGES)
            bad = f'{{"id": "x", "created_at": {self.HUGE}, "text": "corona"}}\n'
        else:
            path.write_text("".join(f"{m.id}\t{m.timestamp:%Y-%m-%dT%H:%M:%SZ}\t{m.text}\tnl\t"
                                    f"twitter\n" for m in FIVE_MESSAGES), encoding="utf-8")
            bad = f"x\t{self.HUGE}\tcorona\tnl\ttwitter\n"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(bad)
        argv = [*command, "--in", str(path), "--format", fmt, "--out", str(tmp_path / "out"),
                "--log"]
        assert main(argv) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        warnings = [e["message"] for e in events if e["event"] == "log"]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"c.{fmt} line 6 rejected: bad timestamp: ")
        assert events[-1]["rejected_lines"] == 1

    def test_scored_csv_exits_two_naming_file_and_line(self, tmp_path, capsys):
        scored = tmp_path / "scored.csv"
        scored.write_text(SCORED_CSV + f"c,{self.HUGE},0.1,1\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        out.write_text("oude inhoud\n", encoding="utf-8")
        argv = ["timeseries", "--kind", "sentiment", "--in", str(scored), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: scored.csv: bad timestamp: '{self.HUGE}', line 4\n")
        assert out.read_text(encoding="utf-8") == "oude inhoud\n"

    def test_year_999_round_trips_through_the_chain(self, tmp_path, capsys):
        corpus, matched, scored, series = (tmp_path / name for name in
                                           ("c.jsonl", "m.jsonl", "s.csv", "t.csv"))
        corpus.write_text('{"id": "a", "created_at": "0999-06-01T10:00:00Z", '
                          '"text": "corona goed"}\n', encoding="utf-8")
        assert main(["filter", "--builtin", "pandemic", "--in", str(corpus),
                     "--out", str(matched)]) == 0
        assert json.loads(matched.read_text(encoding="utf-8"))["created_at"] == \
            "0999-06-01T10:00:00Z"
        assert main(["sentiment", "--toy-lexicon", "--in", str(matched),
                     "--out", str(scored)]) == 0
        assert scored.read_text(encoding="utf-8").splitlines()[1] == \
            "a,0999-06-01T10:00:00Z,0.6,1"
        assert main(["timeseries", "--kind", "sentiment", "--in", str(scored),
                     "--out", str(series)]) == 0
        assert series.read_text(encoding="utf-8") == "bucket,mean,n\n0999-06-01,0.6,1\n"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("created, bucket, error", [
        # moving to +01:00 leaves the year 9999
        ("9999-12-31T23:30:00Z", "day",
         "timestamp 9999-12-31T23:30:00+00:00 leaves the years 1-9999 in UTC+01:00"),
        # the bucket is representable but the one after it is not
        ("9999-12-31T10:00:00Z", "day",
         "the day of 9999-12-31 ends after year 9999"),
        ("9999-12-31T22:30:00Z", "hour",
         "the hour of 9999-12-31T23:00:00+01:00 ends after year 9999"),
    ], ids=["offset", "next-day", "next-hour"])
    def test_year_9999_bucket_exits_two_naming_the_timestamp(self, created, bucket, error,
                                                              tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [msg("corona", id="a", ts="2020-03-01T10:00:00Z"),
                            msg("corona", id="b", ts=created)])
        out = tmp_path / "out.csv"
        out.write_text("oude inhoud\n", encoding="utf-8")
        argv = ["timeseries", "--kind", "frequency", "--bucket", bucket, "--in", str(path),
                "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert out.read_text(encoding="utf-8") == "oude inhoud\n"

    def test_events_past_the_last_bucket_of_9999_leave_outputs_untouched(self, tmp_path, capsys):
        scored = tmp_path / "scored.csv"
        scored.write_text(SCORED_CSV + "c,9999-12-31T10:00:00Z,0.1,1\n", encoding="utf-8")
        events = tmp_path / "events.json"
        events.write_text('[{"date": "2020-03-11", "label": "persconferentie"}]', encoding="utf-8")
        out = tmp_path / "out.csv"
        out.write_text("oude inhoud\n", encoding="utf-8")
        argv = ["timeseries", "--kind", "sentiment", "--in", str(scored), "--out", str(out),
                "--events", str(events), "--events-out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: the day of 9999-12-31 ends after year 9999\n"
        assert out.read_text(encoding="utf-8") == "oude inhoud\n"
        assert not (tmp_path / "m.json").exists()

    def test_stray_year_exits_two_naming_both_ends(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [*FIVE_MESSAGES, msg("corona", id="x", ts="2999-03-01T10:00:00Z")])
        out = tmp_path / "out.csv"
        argv = ["timeseries", "--kind", "frequency", "--in", str(path), "--out", str(out)]
        assert main(argv) == 2
        first = min(m.timestamp for m in FIVE_MESSAGES).astimezone(DEFAULT_TZ).date()
        assert capsys.readouterr().err == (
            f"error: timestamps from {first} to 2999-03-01 span more than the 10000 days "
            "a frequency series fills\n")
        assert not out.exists()

    @pytest.mark.parametrize("created", [HUGE, "1e400", f'"{HUGE}"'])
    def test_labeled_jsonl_exits_two_naming_file_and_line(self, created, tmp_path, capsys):
        labeled = tmp_path / "lab.jsonl"
        labeled.write_text('{"created_at": "2020-03-11T10:00:00Z", "stance": "other"}\n'
                           f'{{"created_at": {created}, "stance": "other"}}\n', encoding="utf-8")
        out = tmp_path / "out.csv"
        out.write_text("oude inhoud\n", encoding="utf-8")
        assert main(["stance-series", "--in", str(labeled), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: lab.jsonl: bad timestamp: ") and err.endswith(", line 2\n")
        assert out.read_text(encoding="utf-8") == "oude inhoud\n"


class TestOutputFileFlags:
    @pytest.mark.parametrize("command, flag", OUTPUT_FILE_FLAGS)
    def test_missing_directory_exits_one_before_output(self, command, flag, valid_runs,
                                                       tmp_path, capsys):
        out = tmp_path / "out"
        outputs = [out, tmp_path / "out.events"]
        for path in outputs:
            path.write_text("oude inhoud\n", encoding="utf-8")
        nowhere = str(tmp_path / "nodir" / "x.json")
        assert main([command, *_with_flag(valid_runs(command, str(out)), flag, nowhere)]) == 1
        err = capsys.readouterr().err
        assert (f"error: argument {flag}: expected a file in an existing directory, "
                f"got '{nowhere}'") in err
        assert [p.read_text(encoding="utf-8") for p in outputs] == ["oude inhoud\n"] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.events"]

    @pytest.mark.parametrize("command, first, second", [
        ("filter", "--out", "--stats"),
        ("filter", "--out", "--unmatched-out"),
        ("filter", "--unmatched-out", "--stats"),
        ("sentiment", "--out", "--summary"),
        ("timeseries", "--out", "--events-out"),
    ])
    def test_two_flags_naming_one_file_exit_one(self, command, first, second, valid_runs,
                                                tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("oude inhoud\n", encoding="utf-8")
        argv = _with_flag(valid_runs(command, str(tmp_path / "other")), first, str(out))
        # the same file by another spelling
        argv = _with_flag(argv, second, str(tmp_path / "sub" / ".." / "out"))
        (tmp_path / "sub").mkdir()
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == f"error: {first} and {second} name the same file\n"
        assert out.read_text(encoding="utf-8") == "oude inhoud\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "sub"]

    def test_existing_directory_is_not_an_output(self, valid_runs, tmp_path, capsys):
        argv = valid_runs("sentiment", str(tmp_path))
        assert main(["sentiment", *argv]) == 1
        assert "expected a file in an existing directory" in capsys.readouterr().err


class TestFilter:
    def test_two_hits_from_five_messages(self, corpus, tmp_path, capsys):
        out = tmp_path / "matched.jsonl"
        rest = tmp_path / "rest.jsonl"
        stats = tmp_path / "stats.json"
        argv = ["filter", "--builtin", "pandemic", "--in", str(corpus),
                "--out", str(out), "--unmatched-out", str(rest), "--stats", str(stats)]
        assert main(argv) == 0
        matched = out.read_text(encoding="utf-8").splitlines()
        assert len(matched) == 2
        assert [json.loads(line)["id"] for line in matched] == ["a", "c"]
        assert len(rest.read_text(encoding="utf-8").splitlines()) == 3
        report = json.loads(stats.read_text(encoding="utf-8"))
        assert report["total"] == 5
        assert report["rejected"] == 0
        assert report["per_day"]["2020-03-11"] == 2

    def test_output_reingests(self, corpus, tmp_path):
        out = tmp_path / "matched.jsonl"
        main(["filter", "--builtin", "pandemic", "--in", str(corpus), "--out", str(out)])
        replayed = list(ingest(out))
        assert [m.id for m in replayed] == ["a", "c"]
        assert replayed[0].text == FIVE_MESSAGES[0].text

    def test_dedup_and_drop_reposts(self, tmp_path):
        msgs = [
            msg("corona bericht", id="x1", ts="2020-03-11T10:00:00Z"),
            msg("corona bericht", id="x2", ts="2020-03-11T11:00:00Z"),
            msg("corona origineel", id="x3", ts="2020-03-11T12:00:00Z", is_repost=True),
        ]
        path = tmp_path / "c.jsonl"
        write_corpus(path, msgs)
        out = tmp_path / "matched.jsonl"
        argv = ["filter", "--builtin", "pandemic", "--in", str(path), "--out", str(out),
                "--dedup", "by_exact_text", "--drop-reposts"]
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["x1"]

    def test_reruns_are_byte_identical(self, corpus, tmp_path):
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        for out in (first, second):
            main(["filter", "--builtin", "pandemic", "--in", str(corpus), "--out", str(out)])
        assert first.read_bytes() == second.read_bytes()

    def test_bad_lang_tag(self, corpus, tmp_path):
        argv = ["filter", "--builtin", "pandemic", "--in", str(corpus),
                "--out", str(tmp_path / "o.jsonl"), "--lang", "12"]
        assert main(argv) == 1

    def test_custom_query_file(self, corpus, tmp_path):
        query = tmp_path / "q.json"
        query.write_text('{"name": "fiets", "keywords": ["gefietst"]}', encoding="utf-8")
        out = tmp_path / "matched.jsonl"
        assert main(["filter", "--query", str(query), "--in", str(corpus), "--out", str(out)]) == 0
        assert [json.loads(l)["id"] for l in out.read_text(encoding="utf-8").splitlines()] == ["d"]

    def test_upper_case_regex_matches_case_folded_text(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [msg("Corona is hier", id="1"), msg("RIVM meldt", id="2"),
                            msg("niets", id="3")])
        query = tmp_path / "up.json"
        query.write_text('{"regex": "Corona|RIVM"}', encoding="utf-8")
        out = tmp_path / "matched.jsonl"
        assert main(["filter", "--query", str(query), "--in", str(path), "--out", str(out)]) == 0
        assert [json.loads(l)["id"] for l in out.read_text(encoding="utf-8").splitlines()] == [
            "1", "2"]

    def test_legacy_combine_that_disagrees_exits_two(self, corpus, tmp_path, capsys):
        # the fields select a, c and d; "keywords_only" would silently drop d
        query = tmp_path / "q.json"
        query.write_text('{"keywords": ["corona"], "regex": "gefietst", '
                         '"combine": "keywords_only"}', encoding="utf-8")
        argv = ["filter", "--query", str(query), "--in", str(corpus),
                "--out", str(tmp_path / "o.jsonl"), "--stats", str(tmp_path / "s.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: q.json: combine must be 'keywords_or_regex' "
                                           "or absent, got 'keywords_only'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "q.json"]


class TestAtomicOutputs:
    def test_failed_run_leaves_no_output(self, tmp_path):
        bad = tmp_path / "scored.csv"
        bad.write_text("id,timestamp,value,hits\nm1,niet-een-datum,0.5,1\n", encoding="utf-8")
        out = tmp_path / "series.csv"
        argv = ["timeseries", "--kind", "sentiment", "--in", str(bad), "--out", str(out)]
        assert main(argv) == 2
        assert not out.exists()

    def test_failed_run_preserves_existing_file(self, tmp_path):
        bad = tmp_path / "scored.csv"
        bad.write_text("id,timestamp,value,hits\nm1,niet-een-datum,0.5,1\n", encoding="utf-8")
        out = tmp_path / "series.csv"
        out.write_text("oude inhoud\n", encoding="utf-8")
        argv = ["timeseries", "--kind", "sentiment", "--in", str(bad), "--out", str(out)]
        assert main(argv) == 2
        assert out.read_text(encoding="utf-8") == "oude inhoud\n"

    def test_no_temp_files_left_behind(self, corpus, tmp_path):
        out = tmp_path / "matched.jsonl"
        main(["filter", "--builtin", "pandemic", "--in", str(corpus), "--out", str(out)])
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name not in ("corpus.jsonl", "matched.jsonl")]
        assert leftovers == []

    def test_interrupted_write_cleans_up(self, tmp_path):
        from opinionpulse.cli import _atomic_text

        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with _atomic_text(target) as handle:
                handle.write("half klaar")
                raise RuntimeError("boem")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestSentimentAndTimeseries:
    def run_sentiment(self, corpus, tmp_path, *extra):
        scored = tmp_path / "scored.csv"
        argv = ["sentiment", "--toy-lexicon", "--in", str(corpus), "--out", str(scored)]
        assert main(list(argv) + list(extra)) == 0
        return scored

    def test_scored_csv_schema(self, corpus, tmp_path):
        scored = self.run_sentiment(corpus, tmp_path)
        rows = list(csv.reader(io.StringIO(scored.read_text(encoding="utf-8"))))
        assert rows[0] == ["id", "timestamp", "value", "hits"]
        assert len(rows) == 6
        assert rows[1][0] == "a"
        float(rows[1][2])  # value parses
        int(rows[1][3])

    def test_summary_matches_library(self, corpus, tmp_path):
        summary_path = tmp_path / "summary.json"
        self.run_sentiment(corpus, tmp_path, "--summary", str(summary_path))
        lexicon = load_lexicon(toy_lexicon_path())
        stream = score_stream(lexicon, ingest(corpus))
        for _ in stream:
            pass
        assert json.loads(summary_path.read_text(encoding="utf-8")) == stream.summary.to_dict()

    def test_daily_series_equals_in_process_pipeline(self, corpus, tmp_path):
        scored = self.run_sentiment(corpus, tmp_path)
        series_path = tmp_path / "series.csv"
        argv = ["timeseries", "--kind", "sentiment", "--in", str(scored),
                "--out", str(series_path)]
        assert main(argv) == 0

        lexicon = load_lexicon(toy_lexicon_path())
        pairs = ((m.timestamp, s.value) for m, s in score_stream(lexicon, ingest(corpus)))
        points = sentiment_series(pairs, bucket="day", tz=DEFAULT_TZ)
        buffer = io.StringIO()
        write_value_csv(points, buffer)
        assert series_path.read_text(encoding="utf-8") == buffer.getvalue()

    def test_hourly_bucket_applies_offset(self, corpus, tmp_path):
        scored = self.run_sentiment(corpus, tmp_path)
        series_path = tmp_path / "hourly.csv"
        argv = ["timeseries", "--kind", "sentiment", "--in", str(scored),
                "--bucket", "hour", "--tz", "+01:00", "--out", str(series_path)]
        assert main(argv) == 0
        buckets = [row.split(",")[0] for row in
                   series_path.read_text(encoding="utf-8").splitlines()[1:]]
        # message b was sent 14:30 UTC -> the 15:00 bucket at +01:00
        assert "2020-03-11T15:30:00+01:00" not in buckets
        assert "2020-03-11T15:00:00+01:00" in buckets

    def test_negative_tz_shifts_day_buckets(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        # 03:00 UTC is 21:30 the day before at -05:30, 04:00 the same day at +01:00
        write_corpus(corpus, [msg("corona", id="a", ts="2020-03-12T03:00:00Z")])
        out = tmp_path / "freq.csv"
        base = ["timeseries", "--kind", "frequency", "--in", str(corpus), "--out", str(out)]
        assert main(base) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1:] == ["2020-03-12,1"]
        # a separate "-05:30" word would be taken for a flag, so the = form is needed
        assert main([*base, "--tz=-05:30"]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1:] == ["2020-03-11,1"]

    def test_nonzero_only_drops_zero_scores(self, corpus, tmp_path):
        scored = self.run_sentiment(corpus, tmp_path)
        rows = list(csv.reader(io.StringIO(scored.read_text(encoding="utf-8"))))[1:]
        kept = [(r[1], float(r[2])) for r in rows if float(r[2]) != 0.0]
        assert kept and len(kept) < len(rows)  # the fixture has both kinds

        everything = tmp_path / "all.csv"
        filtered = tmp_path / "nonzero.csv"
        base = ["timeseries", "--kind", "sentiment", "--in", str(scored)]
        assert main(base + ["--out", str(everything)]) == 0
        assert main(base + ["--nonzero-only", "--out", str(filtered)]) == 0
        total_all = sum(int(r[2]) for r in csv.reader(io.StringIO(everything.read_text()))
                        if r and r[0] != "bucket")
        total_kept = sum(int(r[2]) for r in csv.reader(io.StringIO(filtered.read_text()))
                         if r and r[0] != "bucket")
        assert total_all == len(rows)
        assert total_kept == len(kept)

    def test_frequency_series(self, corpus, tmp_path):
        out = tmp_path / "freq.csv"
        argv = ["timeseries", "--kind", "frequency", "--in", str(corpus), "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "bucket,n"
        counts = {row.split(",")[0]: int(row.split(",")[1]) for row in lines[1:]}
        assert sum(counts.values()) == 5

    def test_frequency_moving_average_switches_schema(self, corpus, tmp_path):
        out = tmp_path / "freq_ma.csv"
        argv = ["timeseries", "--kind", "frequency", "--in", str(corpus),
                "--ma", "3", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text(encoding="utf-8").splitlines()[0] == "bucket,mean,n"

    def test_events_marker_report(self, corpus, tmp_path):
        events = tmp_path / "events.json"
        events.write_text(
            '[{"date": "2020-03-12", "label": "persconferentie"},'
            ' {"date": "2021-01-01", "label": "ver weg"}]',
            encoding="utf-8",
        )
        out = tmp_path / "freq.csv"
        markers = tmp_path / "markers.json"
        argv = ["timeseries", "--kind", "frequency", "--in", str(corpus),
                "--out", str(out), "--events", str(events), "--events-out", str(markers)]
        assert main(argv) == 0
        report = json.loads(markers.read_text(encoding="utf-8"))
        assert report["markers"] == {"2020-03-12": ["persconferentie"]}
        assert report["out_of_range"] == [{"date": "2021-01-01", "label": "ver weg"}]

    def test_events_requires_events_out(self, corpus, tmp_path):
        argv = ["timeseries", "--kind", "frequency", "--in", str(corpus),
                "--out", str(tmp_path / "o.csv"), "--events", "whatever.json"]
        assert main(argv) == 1

    @pytest.mark.parametrize("events_text, code", [(None, 1), ('[{"date": "bad"}]', 2)])
    def test_bad_events_file_leaves_out_untouched(self, events_text, code, corpus, tmp_path):
        events = tmp_path / "events.json"
        if events_text is not None:
            events.write_text(events_text, encoding="utf-8")
        out = tmp_path / "s.csv"
        out.write_text("oude inhoud\n", encoding="utf-8")
        argv = ["timeseries", "--kind", "frequency", "--in", str(corpus), "--out", str(out),
                "--events", str(events), "--events-out", str(tmp_path / "m.json")]
        assert main(argv) == code
        assert out.read_text(encoding="utf-8") == "oude inhoud\n"
        assert not (tmp_path / "m.json").exists()


class TestAnnotateAndKappa:
    def test_annotation_template(self, corpus, tmp_path):
        out = tmp_path / "todo.tsv"
        argv = ["annotate-sample", "--builtin", "pandemic", "--in", str(corpus),
                "--rate", "1.0", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(line.startswith("\t") for line in lines)

    def test_line_break_in_text_keeps_one_template_line(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [msg("corona eerste regel\ntweede regel", id="m1"),
                            msg("corona\r\nzonder\rpauze", id="m2"),
                            msg("corona gewoon", id="m3")])
        template = tmp_path / "todo.tsv"
        argv = ["annotate-sample", "--builtin", "pandemic", "--in", str(path),
                "--rate", "1.0", "--out", str(template)]
        assert main(argv) == 0
        assert template.read_bytes() == (b"\tcorona eerste regel tweede regel\n"
                                         b"\tcorona zonder pauze\n\tcorona gewoon\n")

        filled = tmp_path / "done.tsv"
        filled.write_text("".join(f"{label}{row}\n" for label, row in
                                  zip(LABELS, template.read_text(encoding="utf-8").splitlines())),
                          encoding="utf-8")
        assert main(["kappa", "--a", str(filled), "--b", str(filled)]) == 0
        assert "n=3" in capsys.readouterr().out.splitlines()
        argv = ["train", "--labels", str(filled), "--out", str(tmp_path / "m.bin")]
        assert main(argv + FAST_MODEL_FLAGS) == 0

    def test_same_seed_same_sample(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [msg(f"corona bericht {i}", id=f"m{i}") for i in range(40)])
        outputs = []
        for name in ("one.tsv", "two.tsv"):
            out = tmp_path / name
            argv = ["annotate-sample", "--builtin", "pandemic", "--in", str(path),
                    "--n", "10", "--seed", "7", "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_no_matches_exits_two(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        write_corpus(path, [msg("niets relevants", id="m1")])
        argv = ["annotate-sample", "--builtin", "pandemic", "--in", str(path),
                "--rate", "1.0", "--out", str(tmp_path / "o.tsv")]
        assert main(argv) == 2
        assert "selected no messages" in capsys.readouterr().err

    def test_rate_validation(self, corpus, tmp_path):
        argv = ["annotate-sample", "--builtin", "pandemic", "--in", str(corpus),
                "--rate", "1.5", "--out", str(tmp_path / "o.tsv")]
        assert main(argv) == 1

    def test_kappa_hand_case(self, tmp_path, capsys):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        first.write_text("supports\tx\nsupports\tx\nrejects\tx\nrejects\tx\n", encoding="utf-8")
        second.write_text("supports\tx\nsupports\tx\nrejects\tx\nsupports\tx\n", encoding="utf-8")
        assert main(["kappa", "--a", str(first), "--b", str(second)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "kappa=0.5"
        assert lines[1] == "observed_agreement=0.75"
        assert lines[2] == "expected_agreement=0.5"
        assert lines[3] == "n=4"


class TestModelFlow:
    def train_model(self, labels_file, tmp_path, *extra):
        model_path = tmp_path / "model.bin"
        argv = ["train", "--labels", str(labels_file), "--out", str(model_path)]
        argv += FAST_MODEL_FLAGS + list(extra)
        assert main(argv) == 0
        return model_path

    def test_train_writes_model(self, labels_file, tmp_path):
        model_path = self.train_model(labels_file, tmp_path)
        header = json.loads(model_path.read_bytes().partition(b"\n")[0])
        assert header["format_version"] == 2
        assert header["hyperparams"]["dim"] == 16

    def test_train_memory_follows_touched_rows(self, labels_file, tmp_path):
        # default 2M buckets: a dense table at dim 50 alone would be 382 MiB.
        # A small helper interpreter starts train and reads its own peak RSS
        # from os.wait4, so the test process's pages are not counted.
        src = str(Path(opinionpulse.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        helper = ("import os, subprocess, sys\n"
                  "child = subprocess.Popen(sys.argv[1:])\n"
                  "_, status, usage = os.wait4(child.pid, 0)\n"
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
        argv = [sys.executable, "-c", helper, sys.executable, "-m", "opinionpulse.cli", "train",
                "--labels", str(labels_file), "--dim", "50", "--out", str(tmp_path / "m.bin")]
        result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
        code, maxrss_kib = map(int, result.stdout.split())
        assert code == 0, result.stderr
        assert maxrss_kib < 100 * 1024

    def test_train_deterministic(self, labels_file, tmp_path):
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
        first = self.train_model(labels_file, tmp_path / "one")
        second = self.train_model(labels_file, tmp_path / "two")
        assert first.read_bytes() == second.read_bytes()

    def test_train_rejects_bad_hyperparams(self, labels_file, tmp_path):
        argv = ["train", "--labels", str(labels_file), "--out", str(tmp_path / "m.bin"),
                "--dim", "0"]
        assert main(argv) == 1

    def test_predict_single_text(self, labels_file, tmp_path, capsys):
        model_path = self.train_model(labels_file, tmp_path)
        capsys.readouterr()
        argv = ["predict", "--model", str(model_path), "--text", "steun eens prima goed"]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["label"] == "supports"
        assert set(record["probs"]) == set(LABELS)
        assert sum(record["probs"].values()) == pytest.approx(1.0, abs=1e-9)

    def test_predict_corpus_then_stance_series(self, labels_file, tmp_path):
        model_path = self.train_model(labels_file, tmp_path)
        corpus_path = tmp_path / "c.jsonl"
        texts = ["steun prima eens", "onzin slecht dom", "koffie en muziek",
                 "goed en verstandig", "waardeloos dit"]
        write_corpus(corpus_path, [
            msg(text, id=f"m{i}", ts=f"2020-03-{11 + i % 2:02d}T10:00:00Z")
            for i, text in enumerate(texts)
        ])
        labeled_path = tmp_path / "labeled.jsonl"
        argv = ["predict", "--model", str(model_path), "--in", str(corpus_path),
                "--out", str(labeled_path)]
        assert main(argv) == 0
        records = [json.loads(line) for line in
                   labeled_path.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 5
        assert all(r["stance"] in LABELS for r in records)
        assert all(abs(sum(r["probs"].values()) - 1.0) < 1e-9 for r in records)

        series_path = tmp_path / "stance.csv"
        argv = ["stance-series", "--in", str(labeled_path), "--out", str(series_path)]
        assert main(argv) == 0
        rows = list(csv.reader(io.StringIO(series_path.read_text(encoding="utf-8"))))
        assert rows[0] == ["bucket", "support", "reject", "other", "n"]
        for row in rows[1:]:
            rates = [float(cell) for cell in row[1:4]]
            assert sum(rates) == pytest.approx(1.0, abs=1e-9)
        assert sum(int(row[4]) for row in rows[1:]) == 5

    def test_predict_in_requires_out(self, labels_file, tmp_path, corpus):
        model_path = self.train_model(labels_file, tmp_path)
        assert main(["predict", "--model", str(model_path), "--in", str(corpus)]) == 1

    def test_predict_missing_model(self, tmp_path):
        assert main(["predict", "--model", str(tmp_path / "nope.bin"), "--text", "x"]) == 1

    def test_grid_search_report(self, labels_file, tmp_path, capsys):
        argv = ["grid-search", "--labels", str(labels_file),
                "--dims", "16", "--epochs", "25", "--lrs", "0.3", "--bucket", "2000"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best"]["dim"] == 16
        assert set(report) == {"best", "validation", "test", "table"}
        assert len(report["table"]) == 1

    def test_grid_search_out_equals_stdout(self, labels_file, tmp_path, capsys):
        base = ["grid-search", "--labels", str(labels_file),
                "--dims", "16", "--epochs", "25", "--lrs", "0.3", "--bucket", "2000"]
        assert main(base) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "report.json"
        assert main(base + ["--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == stdout

    def test_grid_search_rejects_out_of_range_axis(self, labels_file):
        argv = ["grid-search", "--labels", str(labels_file), "--dims", "5"]
        assert main(argv) == 1

    def test_grid_search_rejects_bad_list(self, labels_file):
        argv = ["grid-search", "--labels", str(labels_file), "--dims", "tien"]
        assert main(argv) == 1

    def test_learning_curve_csv(self, labels_file, tmp_path, capsys):
        argv = ["learning-curve", "--labels", str(labels_file),
                "--sizes", "20,40", "--test-size", "20"] + FAST_MODEL_FLAGS
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "size,mean_accuracy,mean_fraction_score"
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["20", "40"]
        for line in lines[1:]:
            float(line.split(",")[1])

    def test_learning_curve_reruns_identical(self, labels_file, tmp_path):
        paths = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            argv = ["learning-curve", "--labels", str(labels_file),
                    "--sizes", "20,40", "--test-size", "20", "--repeats", "2",
                    "--out", str(out)] + FAST_MODEL_FLAGS
            assert main(argv) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestWorkers:
    """Training commands give the same output with forked workers as in one process."""

    GRID = ["--dims", "10,16", "--epochs", "10,25", "--lrs", "0.3", "--bucket", "2000"]

    def run(self, monkeypatch, capsys, cpus, argv):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().err

    def test_grid_search_output_and_log_match(self, labels_file, tmp_path, monkeypatch, capsys):
        runs = []
        for cpus in (1, 2):
            out = tmp_path / f"grid{cpus}.json"
            argv = ["grid-search", "--labels", str(labels_file), *self.GRID,
                    "--out", str(out), "--log"]
            code, err = self.run(monkeypatch, capsys, cpus, argv)
            assert code == 0
            runs.append((out.read_bytes(), err.splitlines()))
        (report1, log1), (report2, log2) = runs
        assert report1 == report2
        assert log1[:-1] == log2[:-1]
        assert sum('"grid config dim=' in line for line in log1) == 4
        final1, final2 = json.loads(log1[-1]), json.loads(log2[-1])
        assert (final1.pop("workers"), final2.pop("workers")) == (1, 2)
        for totals in ("wall_s", "peak_rss_mb"):  # measurements of each run, not results
            final1.pop(totals), final2.pop(totals)
        assert final1 == final2

    def test_error_in_a_worker_exits_two(self, labels_file, tmp_path, monkeypatch, capsys):
        def failing_train(examples, hp=None):
            if hp.dim == 16:
                raise InputError(f"cannot train dim={hp.dim}")
            return stance_train(examples, hp)

        monkeypatch.setattr(evaluation, "train", failing_train)
        argv = ["grid-search", "--labels", str(labels_file), *self.GRID,
                "--out", str(tmp_path / "grid.json"), "--log"]
        one, two = (self.run(monkeypatch, capsys, cpus, argv) for cpus in (1, 2))
        assert one == two
        assert one[0] == 2
        assert one[1].endswith("error: cannot train dim=16\n")
        assert not (tmp_path / "grid.json").exists()

    def test_learning_curve_log_names_workers(self, labels_file, tmp_path, monkeypatch,
                                              capsys):
        argv = ["learning-curve", "--labels", str(labels_file), "--sizes", "20,40",
                "--test-size", "20", "--out", str(tmp_path / "lc.csv"), "--log",
                *FAST_MODEL_FLAGS]
        code, err = self.run(monkeypatch, capsys, 2, argv)
        assert code == 0
        assert json.loads(err.splitlines()[-1])["workers"] == 2


class TestCorrelate:
    def write_series(self, path, rows):
        path.write_text("".join(f"{d},{v}\n" for d, v in rows), encoding="utf-8")

    def test_exact_positive_correlation(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        days = [f"2020-03-{d:02d}" for d in range(1, 9)]
        self.write_series(a, zip(days, range(1, 9)))
        self.write_series(b, zip(days, range(3, 19, 2)))  # 2x + 1
        out = tmp_path / "r.json"
        assert main(["correlate", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "r=1.0"
        assert lines[1] == "n_overlap=8"
        assert json.loads(out.read_text(encoding="utf-8")) == {"r": 1.0, "n_overlap": 8}

    def test_degenerate_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_series(a, [("2020-03-01", 1), ("2020-03-02", 1), ("2020-03-03", 1)])
        self.write_series(b, [("2020-03-01", 1), ("2020-03-02", 2), ("2020-03-03", 3)])
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 2
        assert "zero variance" in capsys.readouterr().err

    @pytest.mark.parametrize("series", ["frequency", "sentiment", "sentiment-ma3", "stance"])
    def test_correlates_cli_series_output(self, series, labels_file, tmp_path, capsys):
        # stance words that are also toy-lexicon words, so every series varies by day
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, [
            msg(text, id=f"m{i}", ts=f"2020-03-{day}T10:{i:02d}:00Z")
            for i, (day, text) in enumerate([
                (11, "steun goed eens prima"), (11, "goed nuttig verstandig"),
                (12, "onzin slecht dom"), (12, "steun goed helpt"),
                (13, "waardeloos slecht onzin"), (13, "koffie muziek film"),
                (13, "zon koffie trein"),
            ])
        ])
        source = corpus
        if series.startswith("sentiment"):
            source = tmp_path / "scored.csv"
            assert main(["sentiment", "--toy-lexicon", "--in", str(corpus),
                         "--out", str(source)]) == 0
        elif series == "stance":
            model = tmp_path / "model.bin"
            source = tmp_path / "labeled.jsonl"
            train_fast_model(labels_file, model)
            assert main(["predict", "--model", str(model), "--in", str(corpus),
                         "--out", str(source)]) == 0
        argv = {
            "frequency": ["timeseries", "--kind", "frequency"],
            "sentiment": ["timeseries", "--kind", "sentiment"],
            "sentiment-ma3": ["timeseries", "--kind", "sentiment", "--ma", "3"],
            "stance": ["stance-series"],
        }[series]
        written = tmp_path / "series.csv"
        assert main(argv + ["--in", str(source), "--out", str(written)]) == 0
        external = tmp_path / "ext.csv"
        self.write_series(external, [("2020-03-11", 4), ("2020-03-12", 5), ("2020-03-13", 1)])
        capsys.readouterr()
        assert main(["correlate", "--a", str(written), "--b", str(external)]) == 0
        out = capsys.readouterr().out
        assert "n_overlap=3" in out

    @pytest.mark.parametrize("row, message", [
        ("2020-03-03", "expected bucket,n, line 4"),
        ("2020-03-03,x", "bad value 'x', line 4"),
        ("2020-03-02,9", "duplicate bucket 2020-03-02, line 4"),
    ], ids=["short-row", "bad-value", "duplicate-bucket"])
    def test_malformed_series_row_exits_two(self, row, message, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text(f"bucket,n\n2020-03-01,1\n2020-03-02,2\n{row}\n", encoding="utf-8")
        b = tmp_path / "b.csv"
        self.write_series(b, [("2020-03-01", 1), ("2020-03-02", 3)])
        assert main(["correlate", "--a", str(a), "--b", str(b)]) == 2
        assert f"error: a.csv: {message}" in capsys.readouterr().err


class TestExpandQuery:
    def test_report_shape(self, tmp_path, capsys):
        texts = [f"afstand met meter erbij nummer{i % 7}" for i in range(40)]
        texts += [f"gewoon met bericht erbij nummer{i % 7}" for i in range(360)]
        path = tmp_path / "c.jsonl"
        write_corpus(path, [msg(t, id=f"m{i}") for i, t in enumerate(texts)])
        query = tmp_path / "q.json"
        query.write_text('{"name": "afstand", "keywords": ["afstand"]}', encoding="utf-8")
        argv = ["expand-query", "--query", str(query), "--in", str(path), "--top-k", "5"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"query", "rounds"}
        assert report["query"] == "afstand"
        # the query never changes within a run, so there is one ranking
        assert len(report["rounds"]) == 1
        assert report["rounds"][0][0]["token"] == "meter"
        assert len(report["rounds"][0]) == 5


class TestRunLog:
    def test_log_lines_are_json(self, corpus, tmp_path, capsys):
        out = tmp_path / "matched.jsonl"
        argv = ["filter", "--builtin", "pandemic", "--in", str(corpus),
                "--out", str(out), "--log"]
        assert main(argv) == 0
        err_lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        events = [json.loads(line) for line in err_lines]
        assert events[0]["event"] == "run"
        assert events[0]["command"] == "filter"
        assert events[0]["seed"] == 42
        assert any(e.get("event") == "filter" and e.get("matched") == 2 for e in events)

    @pytest.mark.parametrize("command", [*SUBCOMMANDS, "predict --text"])
    def test_every_command_ends_with_one_final_record(self, command, valid_runs, tmp_path,
                                                      capsys):
        name = command.split()[0]
        argv = valid_runs(name, str(tmp_path / "out"))
        if command == "predict --text":
            argv = [*argv[:2], "--text", "houd afstand"]
        capsys.readouterr()
        assert main([name, *argv, "--log"]) == 0
        events = [json.loads(line)["event"] for line in capsys.readouterr().err.splitlines()]
        assert events[0] == "run" and events[-1] == name
        assert events.count("run") == events.count(name) == 1

    @pytest.mark.parametrize("command", [*SUBCOMMANDS, "predict --text"])
    def test_final_record_has_wall_time_and_peak_rss(self, command, valid_runs, tmp_path,
                                                     capsys):
        name = command.split()[0]
        argv = valid_runs(name, str(tmp_path / "out"))
        if command == "predict --text":
            argv = [*argv[:2], "--text", "houd afstand"]
        capsys.readouterr()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        start = time.perf_counter()
        assert main([name, *argv, "--log"]) == 0
        elapsed = time.perf_counter() - start
        # the larger of this process's peak and that of its waited-for children
        after = max(resource.getrusage(who).ru_maxrss / 1024
                    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["event"] == name
        assert 0 < record["wall_s"] <= elapsed + 1e-4
        assert before - 0.01 <= record["peak_rss_mb"] <= after + 0.01

    @pytest.mark.parametrize("command", [
        "sentiment", "timeseries", "predict", "annotate-sample", "expand-query",
    ])
    def test_final_record_counts_rejected_lines(self, command, malformed_corpus, labels_file,
                                                tmp_path, capsys):
        corpus, out, model = str(malformed_corpus), str(tmp_path / "out"), tmp_path / "m.bin"
        if command == "predict":
            train_fast_model(labels_file, model)
        argv = {
            "sentiment": ["--toy-lexicon", "--in", corpus],
            "timeseries": ["--kind", "frequency", "--in", corpus],
            "predict": ["--model", str(model), "--in", corpus],
            "annotate-sample": ["--builtin", "pandemic", "--in", corpus, "--n", "1"],
            "expand-query": ["--builtin", "pandemic", "--in", corpus, "--min-count", "1"],
        }[command]
        capsys.readouterr()
        assert main([command, *argv, "--out", out, "--log"]) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                  if line.strip()]
        assert events[-1]["event"] == command
        assert events[-1]["rejected_lines"] == 1

    @pytest.mark.parametrize("command", ["filter", "sentiment", "timeseries", "predict"])
    def test_undecodable_lines_are_rejected(self, command, labels_file, tmp_path, capsys):
        corpus, out, model = tmp_path / "c.jsonl", tmp_path / "out", tmp_path / "m.bin"
        head = b'{"id":"%d","created_at":"2020-03-12T15:00:00Z","text":"hou 1,5 meter afstand '
        # an unpaired \u escape, a byte that is not UTF-8, then a good line
        corpus.write_bytes(head % 1 + b'\\ud83d"}\n' + head % 2 + b'\xff"}\n' + head % 3 + b'"}\n')
        if command == "predict":
            train_fast_model(labels_file, model)
        argv = {
            "filter": ["--builtin", "socialdistancing"],
            "sentiment": ["--toy-lexicon"],
            "timeseries": ["--kind", "frequency"],
            "predict": ["--model", str(model)],
        }[command]
        capsys.readouterr()
        assert main([command, *argv, "--in", str(corpus), "--out", str(out), "--log"]) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                  if line.strip()]
        assert events[-1]["rejected_lines"] == 2
        lines = out.read_text(encoding="utf-8").splitlines()
        if command == "timeseries":
            assert [line.split(",")[1] for line in lines[1:]] == ["1"]
        elif command == "sentiment":
            assert [line.split(",")[0] for line in lines[1:]] == ["3"]
        else:
            assert [json.loads(line)["id"] for line in lines] == ["3"]

    def test_train_record_has_epoch_losses_and_model_rows(self, labels_file, tmp_path, capsys):
        model = tmp_path / "m.bin"
        argv = ["train", "--labels", str(labels_file), "--out", str(model), "--log"]
        assert main(_with_flag(argv + FAST_MODEL_FLAGS, "--epochs", "12")) == 0
        record = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                  if line.strip()][-1]
        assert record["event"] == "train"
        assert len(record["epoch_losses"]) == record["epochs"] == 12
        assert record["epoch_losses"][-1] == record["final_loss"]
        header = json.loads(model.read_bytes().split(b"\n", 1)[0])
        assert record["model_rows"] == header["rows"] > 0


def _logger_state():
    package = logging.getLogger("opinionpulse")
    # what a child logger makes of the level, cached or not
    warns = logging.getLogger("opinionpulse.corpus").isEnabledFor(logging.WARNING)
    return list(package.handlers), package.level, package.propagate, warns


class TestLoggingScope:
    """main() sets up logging for its own run and leaves the logger as it found it."""

    @pytest.fixture
    def embedded_logger(self):
        # an embedding application's own set-up, which main() must keep
        package = logging.getLogger("opinionpulse")
        handlers, level, propagate, _ = _logger_state()
        package.addHandler(logging.NullHandler())
        package.setLevel(logging.ERROR)
        yield
        package.handlers[:] = handlers
        package.setLevel(level)
        package.propagate = propagate

    @pytest.mark.parametrize("case, code", [("ok", 0), ("usage", 1), ("data", 2), ("log", 0)])
    def test_main_restores_logger_state(self, case, code, embedded_logger, corpus,
                                        malformed_corpus, tmp_path, capsys):
        out = str(tmp_path / "o.jsonl")
        bad_lexicon = tmp_path / "lex.tsv"
        bad_lexicon.write_text("x\t1.5\n", encoding="utf-8")
        # the rejected line makes the run log a warning
        filter_argv = ["filter", "--builtin", "pandemic", "--in", str(malformed_corpus),
                       "--out", out]
        argv = {
            "ok": filter_argv,
            "usage": ["filter", "--builtin", "pandemic",
                      "--in", str(tmp_path / "nope.jsonl"), "--out", out],
            "data": ["sentiment", "--lexicon", str(bad_lexicon), "--in", str(corpus),
                     "--out", out],
            "log": filter_argv + ["--log"],
        }[case]
        before = _logger_state()
        assert main(argv) == code
        assert _logger_state() == before

    def test_main_restores_logger_state_on_exception(self, embedded_logger, tmp_path,
                                                     monkeypatch):
        from opinionpulse.stance import agreement

        def boom(a, b):
            raise RuntimeError("boem")

        monkeypatch.setattr(agreement, "kappa", boom)
        labels = tmp_path / "a.tsv"
        labels.write_text("supports\tx\n", encoding="utf-8")
        before = _logger_state()
        with pytest.raises(RuntimeError):
            main(["kappa", "--a", str(labels), "--b", str(labels)])
        assert _logger_state() == before

    def test_library_warnings_reach_caplog_after_main(self, corpus, tmp_path, capsys, caplog):
        argv = ["filter", "--builtin", "pandemic", "--in", str(corpus),
                "--out", str(tmp_path / "o.jsonl")]
        assert main(argv) == 0
        bad = tmp_path / "c.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            stream = ingest(bad)
            assert list(stream) == []
        assert any("line 1" in rec.getMessage() for rec in caplog.records)
        assert "Logging error" not in capsys.readouterr().err

    def test_rejected_line_warning_on_stderr(self, malformed_corpus, tmp_path, capsys):
        argv = ["filter", "--builtin", "pandemic", "--in", str(malformed_corpus),
                "--out", str(tmp_path / "o.jsonl")]
        assert main(argv) == 0
        assert "bad.jsonl line 3 rejected" in capsys.readouterr().err

    def test_rejected_line_warning_in_json_log(self, malformed_corpus, tmp_path, capsys):
        argv = ["filter", "--builtin", "pandemic", "--in", str(malformed_corpus),
                "--out", str(tmp_path / "o.jsonl"), "--log"]
        assert main(argv) == 0
        events = [json.loads(line) for line in capsys.readouterr().err.splitlines()
                  if line.strip()]
        warnings = [e for e in events if e["event"] == "log" and e["level"] == "warning"]
        assert len(warnings) == 1
        assert warnings[0]["logger"] == "opinionpulse.corpus"
        assert "bad.jsonl line 3 rejected" in warnings[0]["message"]
        assert any(e["event"] == "filter" and e["rejected_lines"] == 1 for e in events)


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.sh"))


class TestShippedScripts:
    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
    def test_script_parses_and_passes_only_known_flags(self, script):
        check = subprocess.run(["bash", "-n", str(script)], capture_output=True, text=True)
        assert check.returncode == 0, check.stderr
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        text = script.read_text(encoding="utf-8").replace("\\\n", " ")
        calls = re.findall(r"^\s*opinionpulse ([\w-]+)(.*)$", text, flags=re.MULTILINE)
        assert calls, f"{script.name} calls no opinionpulse command"
        for command, rest in calls:
            assert command in subparsers.choices, f"{script.name}: no command {command}"
            options = subparsers.choices[command]._option_string_actions
            for flag in re.findall(r"(?<!\S)--[\w-]+", rest):
                assert flag in options, f"{script.name}: {command} has no flag {flag}"
