"""Command-line frontend for the opinion pipeline.

Subcommands compose over files: filter a corpus, score it, aggregate it,
train and apply a stance classifier. Every run with the same flags and
inputs produces byte-identical outputs; output files are written to a
temp file and renamed, so a failing run never leaves partial files.

Exit codes: 0 success, 1 usage error (a bad flag value, a missing input
file or an output in a missing directory, rejected by the parser before
any output is opened), 2 data error (a file exists but violates its format).

Start-up is proportional to the command: the parser reads only
``constants``, ``exceptions`` and ``stance.params``, and each command or
flag type imports the modules it calls in its own body (``from . import
corpus``), then calls through them (``corpus.ingest``). Model names are
read as ``stance.<name>``, which loads numpy on first use.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import __version__
from .constants import DEFAULT_TZ_OFFSET, FREQUENCY_BUCKETS, STANCE_BUCKETS, TOY_LEXICON
from .exceptions import InputError
from .stance.params import DIM_RANGE, EPOCHS_RANGE, LR_RANGE, Hyperparams, grid_hyperparams


class UsageError(Exception):
    """A flag combination the parser cannot check is wrong; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _log(**fields) -> None:
    sys.stderr.write(json.dumps(fields, ensure_ascii=False, sort_keys=True) + "\n")


@contextmanager
def _setup_logging(json_mode: bool):
    """Send ``opinionpulse`` log records to this run's stderr while the body runs.

    Records are plain text at WARNING and up, or JSON objects at INFO and
    up in ``json_mode``; they do not propagate to the root logger meanwhile.
    On exit, by any path, the logger's handlers, level and ``propagate``
    flag are put back as they were, so an in-process ``main()`` call leaves
    the ``opinionpulse`` logger as it found it.
    """
    handler = logging.StreamHandler(sys.stderr)
    if json_mode:
        handler.format = lambda record: json.dumps(
            {"event": "log", "level": record.levelname.lower(), "logger": record.name,
             "message": record.getMessage()}, ensure_ascii=False, sort_keys=True)
        level = logging.INFO
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        level = logging.WARNING
    package = logging.getLogger("opinionpulse")
    saved_handlers, saved_level, saved_propagate = (
        package.handlers[:], package.level, package.propagate)
    package.handlers[:] = [handler]
    package.setLevel(level)
    package.propagate = False
    try:
        yield
    finally:
        package.handlers[:] = saved_handlers
        # setLevel, unlike assigning .level, clears the cached effective levels
        package.setLevel(saved_level)
        package.propagate = saved_propagate
        handler.close()


@contextmanager
def _atomic_path(path):
    """Yield a temp path that replaces ``path`` only if the body succeeds.

    The parser's ``_output_file`` type has checked that the directory exists.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    # mkstemp creates 0600; give the published file normal umask permissions
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(tmp, 0o666 & ~umask)
    try:
        yield Path(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def _atomic_text(path):
    """Atomic text handle on ``path``, or stdout when no path was given."""
    if path is None:
        yield sys.stdout
        return
    with _atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as handle:
        yield handle


def _write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON to ``path``, or stdout."""
    with _atomic_text(path) as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")


def _flag_type(convert, expected: str, accept=lambda value: True):
    """An argparse ``type=``: ``convert`` the flag's text, then check it with ``accept``.

    A failure of either is a usage error raised at parse time, before any
    output is opened; the message names the flag and what was ``expected``.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except (InputError, ValueError):
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_input_file = _flag_type(Path, "an existing file", Path.is_file)
_output_file = _flag_type(Path, "a file in an existing directory",
                          lambda path: path.parent.is_dir() and not path.is_dir())
_positive_int = _flag_type(int, "a positive integer", lambda n: n >= 1)
_positive_float = _flag_type(float, "a positive finite number", lambda x: 0 < x < float("inf"))
_rate = _flag_type(float, "a rate in (0, 1]", lambda rate: 0 < rate <= 1)
_lang = _flag_type(str, "a 2- or 3-letter language tag",
                   lambda tag: tag.isalpha() and 2 <= len(tag) <= 3)


def _parse_tz(text: str):
    from . import timeseries
    return timeseries.parse_tz_offset(text)


def _builtin_query_path(name: str) -> Path:
    from . import filterkit
    return filterkit.builtin_query_path(name)


def _comma_list(convert, expected: str, accept):
    """A non-empty comma-separated list of ``convert`` values that ``accept`` takes."""
    return _flag_type(lambda text: [convert(item) for item in text.split(",") if item.strip()],
                      f"a comma-separated list of {expected}",
                      lambda values: values and accept(values))


_tz = _flag_type(_parse_tz, "an offset such as +01:00")
_builtin_query = _flag_type(_builtin_query_path, "a shipped query name")
_sizes = _comma_list(int, "increasing positive integers",
                     lambda sizes: sizes[0] >= 1 and sizes == sorted(set(sizes)))
_TZ_FLAG = {"type": _tz, "default": DEFAULT_TZ_OFFSET,
            "help": f"bucketing offset (default {DEFAULT_TZ_OFFSET}); "
                    "give a negative one as --tz=-05:30"}


def _list_within(convert, low, high):
    """A non-empty comma-separated list of ``convert`` values, each in [low, high]."""
    return _comma_list(convert, f"{'integers' if convert is int else 'numbers'} in [{low}, {high}]",
                       lambda values: all(low <= v <= high for v in values))


def _check_flags(args) -> None:
    """Refuse a flag the command would ignore, and two output flags that name one file."""
    requires = {"predict": {"--in": "--out", "--format": "--in", "--out": "--in"},
                "timeseries": {"--events": "--events-out", "--events-out": "--events",
                               "--centered": "--ma", "--nonzero-only": "--kind sentiment",
                               "--drop-reposts": "--kind frequency",
                               "--format": "--kind frequency"}}.get(args.command, {})

    def given(option: str) -> bool:  # "--flag", or "--flag value"
        flag, _, value = option.partition(" ")
        found = getattr(args, "infile" if flag == "--in" else flag[2:].replace("-", "_"))
        return found == value if value else found not in (None, False)
    for flag, needed in requires.items():
        if given(flag) and not given(needed):
            raise UsageError(f"{flag} requires {needed}")
    seen = {}
    for dest in ("out", "unmatched_out", "stats", "summary", "events_out"):
        path, flag = getattr(args, dest, None), "--" + dest.replace("_", "-")
        if path is not None and seen.setdefault(path.resolve(), flag) != flag:
            raise UsageError(f"{seen[path.resolve()]} and {flag} name the same file")


def _hyperparams_from(args) -> Hyperparams:
    try:
        # each field has a flag of its own name, --dim to --seed
        return Hyperparams(**{name: getattr(args, name) for name in Hyperparams().to_dict()})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_filter(args) -> dict:
    from . import corpus, filterkit
    query = filterkit.load_query(args.query)
    stream = corpus.ingest(args.infile, args.format or "jsonl")
    msgs = iter(stream)
    if args.lang:
        msgs = corpus.filter_lang(msgs, args.lang)
    if args.drop_reposts:
        msgs = (m for m in msgs if not m.is_repost)
    if args.dedup != "none":
        msgs = corpus.dedup(msgs, mode=args.dedup)

    matched = unmatched = 0
    with ExitStack() as stack:
        out = stack.enter_context(_atomic_text(args.out))
        rest = stack.enter_context(_atomic_text(args.unmatched_out)) if args.unmatched_out else None
        for msg, hit in filterkit.iter_partition(msgs, query):
            matched += hit
            unmatched += not hit
            handle = out if hit else rest
            if handle is not None:
                corpus.write_jsonl((msg,), handle)

    if args.stats:
        _write_json(args.stats, stream.stats.to_dict())
    return {"query": query.name, "matched": matched, "unmatched": unmatched,
            "rejected_lines": stream.stats.rejected}


def cmd_expand_query(args) -> dict:
    from . import corpus, filterkit
    query = filterkit.load_query(args.query)
    stream = corpus.ingest(args.infile, args.format or "jsonl")
    report = filterkit.expand_query(query, stream, top_k=args.top_k, min_count=args.min_count)
    _write_json(args.out, report.to_dict())
    return {"query": query.name, "rejected_lines": stream.stats.rejected}


def cmd_sentiment(args) -> dict:
    from . import corpus, polarity
    lexicon = polarity.load_lexicon(args.lexicon)
    stream = corpus.ingest(args.infile, args.format or "jsonl")
    scored = polarity.score_stream(lexicon, stream)

    with _atomic_text(args.out) as handle:
        polarity.write_scored_csv(scored, handle)
    if args.summary:
        _write_json(args.summary, scored.stats.to_dict())
    return {"lexicon": lexicon.name, "scored": scored.stats.n, "nonzero": scored.stats.nonzero,
            "rejected_lines": stream.stats.rejected}


def cmd_timeseries(args) -> dict:
    from . import timeseries
    # read before --out is replaced, so a bad events file leaves it untouched
    events = timeseries.load_events(args.events) if args.events else None

    fields = {"kind": args.kind, "bucket": args.bucket}
    if args.kind == "frequency":
        from . import corpus
        stream = corpus.ingest(args.infile, args.format or "jsonl")
        msgs = iter(stream)
        if args.drop_reposts:
            msgs = (m for m in msgs if not m.is_repost)
        points = timeseries.frequency_series(msgs, bucket=args.bucket, tz=args.tz)
        fields["rejected_lines"] = stream.stats.rejected
    else:
        from . import polarity
        pairs = polarity.read_scored_csv(args.infile)
        if args.nonzero_only:
            pairs = ((ts, value) for ts, value in pairs if value != 0.0)
        points = timeseries.sentiment_series(pairs, bucket=args.bucket, tz=args.tz)

    smoothed = args.ma is not None
    if smoothed:
        points = timeseries.moving_average(points, window=args.ma, centered=args.centered)
    if events is not None:
        annotated = timeseries.annotate_events(points, events, bucket=args.bucket)

    with _atomic_text(args.out) as handle:
        # a smoothed count series has fractional values, so it switches
        # to the mean-style schema
        if args.kind == "frequency" and not smoothed:
            timeseries.write_frequency_csv(points, handle)
        else:
            timeseries.write_value_csv(points, handle)
    if events is not None:
        _write_json(args.events_out, annotated.to_dict())
    return {**fields, "points": len(points)}


def cmd_annotate_sample(args) -> dict:
    from . import corpus, filterkit
    from .stance import data
    query = filterkit.load_query(args.query)
    stream = corpus.ingest(args.infile, args.format or "jsonl")
    selected = data.prepare_annotation_set(stream, query, rate=args.rate, n=args.n,
                                           seed=args.seed)
    with _atomic_text(args.out) as handle:
        count = data.write_annotation_template(selected, handle)
    return {"query": query.name, "selected": count, "rejected_lines": stream.stats.rejected}


def cmd_kappa(args) -> dict:
    from .stance import agreement, data
    report = agreement.kappa(*data.read_paired_labels(args.a, args.b))
    for key in ("kappa", "observed_agreement", "expected_agreement", "n"):
        print(f"{key}={getattr(report, key)!r}")
    return {"kappa": report.kappa, "n": report.n}


def cmd_train(args) -> dict:
    from . import stance
    hp = _hyperparams_from(args)
    examples = stance.read_labeled_tsv(args.labels)
    model = stance.train(examples, hp)
    with _atomic_path(args.out) as tmp:
        stance.save_model(model, tmp)
    return {"examples": len(examples), "epoch_losses": model.loss_history,
            "final_loss": model.loss_history[-1], "model_rows": int(model.rows.size),
            **hp.to_dict()}


def cmd_grid_search(args) -> dict:
    from . import stance
    try:
        grid = grid_hyperparams(args.dims, args.epochs, args.lrs, seed=args.seed,
                                char_ngram_min=args.char_ngram_min,
                                char_ngram_max=args.char_ngram_max, bucket=args.bucket)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    examples = stance.read_labeled_tsv(args.labels)
    result = stance.grid_search(examples, grid, objective=args.objective, seed=args.seed)
    _write_json(args.out, result.to_dict())
    return {"configs": len(grid), "objective": args.objective, "best": result.best.to_dict(),
            "workers": stance.worker_count(len(grid))}


def cmd_learning_curve(args) -> dict:
    from . import stance
    hp = _hyperparams_from(args)
    examples = stance.read_labeled_tsv(args.labels)
    points = stance.learning_curve(examples, hp, train_sizes=args.sizes, repeats=args.repeats,
                                   seed=args.seed, test_size=args.test_size)
    with _atomic_text(args.out) as handle:
        stance.write_learning_curve_csv(points, handle)
    return {"sizes": args.sizes, "repeats": args.repeats,
            "workers": stance.worker_count(len(args.sizes) * args.repeats)}


def cmd_predict(args) -> dict:
    from . import corpus, stance
    from .stance import data
    model = stance.load_model(args.model)

    if args.text is not None:
        label, probs = stance.predict(model, args.text)
        print(json.dumps({"label": label, "probs": data.probs_dict(model.labels, probs)},
                         ensure_ascii=False, sort_keys=True))
        return {"label": label}

    stream = corpus.ingest(args.infile, args.format or "jsonl")
    with _atomic_text(args.out) as handle:
        labeled = data.write_labeled_jsonl(stance.label_corpus(model, stream), model.labels, handle)
    return {"labeled": labeled, "rejected_lines": stream.stats.rejected}


def cmd_stance_series(args) -> dict:
    from . import timeseries
    from .stance import data
    series = timeseries.stance_series(data.read_labeled_jsonl(args.infile), bucket=args.bucket,
                                      tz=args.tz)
    with _atomic_text(args.out) as handle:
        timeseries.write_stance_csv(series, handle)
    return {"bucket": args.bucket, "points": len(series)}


def cmd_correlate(args) -> dict:
    from . import timeseries
    r, n_overlap = timeseries.correlate(timeseries.read_series_csv(args.a),
                                        timeseries.read_series_csv(args.b))
    result = {"r": r, "n_overlap": n_overlap}
    if args.out:
        _write_json(args.out, result)
    print(f"r={r!r}")
    print(f"n_overlap={n_overlap}")
    return result


# ---------------------------------------------------------------------------
# parser


def _add_query_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", type=_input_file, help="topic query JSON file")
    group.add_argument("--builtin", dest="query", type=_builtin_query, metavar="NAME",
                       help="shipped query: table2 (alias pandemic) or "
                            "socialdistancing (alias social-distancing)")


def _add_corpus_flags(parser) -> None:
    parser.add_argument("--in", dest="infile", type=_input_file, required=True,
                        help="input corpus file")
    parser.add_argument("--format", choices=("jsonl", "tsv"),
                        help="corpus format (default jsonl)")


def _add_hyperparam_flags(parser, defaults: Hyperparams) -> None:
    parser.add_argument("--dim", type=_positive_int, default=defaults.dim,
                        help="embedding width (default %(default)s)")
    parser.add_argument("--epochs", type=_positive_int, default=defaults.epochs,
                        help="training epochs (default %(default)s)")
    parser.add_argument("--lr", type=_positive_float, default=defaults.lr,
                        help="initial learning rate (default %(default)s)")
    _add_hash_flags(parser, defaults)


def _add_hash_flags(parser, defaults: Hyperparams) -> None:
    parser.add_argument("--char-ngram-min", type=_positive_int, default=defaults.char_ngram_min,
                        help="shortest hashed character n-gram (default %(default)s)")
    parser.add_argument("--char-ngram-max", type=int, default=defaults.char_ngram_max,
                        help="longest hashed character n-gram (default %(default)s)")
    parser.add_argument("--bucket", type=_positive_int, default=defaults.bucket,
                        help="hash buckets for character n-grams (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for anything random (default 42)")
    common.add_argument("--log", action="store_true",
                        help="emit a JSON-lines run log on stderr")
    defaults = Hyperparams()

    parser = _Parser(prog="opinionpulse",
                     description="Corpus-to-conclusions opinion pipeline.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    p = command("filter", cmd_filter, "keep messages that match a topic query")
    _add_corpus_flags(p)
    _add_query_flags(p)
    p.add_argument("--out", type=_output_file, required=True, help="matched messages, JSONL")
    p.add_argument("--unmatched-out", type=_output_file, help="optional JSONL for the rest")
    p.add_argument("--stats", type=_output_file, help="optional ingest-stats JSON")
    p.add_argument("--lang", type=_lang, help="keep only this language tag (plus untagged)")
    p.add_argument("--dedup", choices=("none", "by_id", "by_exact_text"), default="none",
                   help="duplicate removal before filtering (default none)")
    p.add_argument("--drop-reposts", action="store_true",
                   help="skip reposts instead of counting them")

    p = command("expand-query", cmd_expand_query,
                "rank candidate query terms by collocation t-score")
    _add_corpus_flags(p)
    _add_query_flags(p)
    p.add_argument("--top-k", type=_positive_int, default=20,
                   help="candidates per round (default 20)")
    p.add_argument("--min-count", type=_positive_int, default=5,
                   help="minimum matched-side count for a candidate (default 5)")
    p.add_argument("--out", type=_output_file, help="report JSON (default stdout)")

    p = command("sentiment", cmd_sentiment, "score each message against a polarity lexicon")
    _add_corpus_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lexicon", type=_input_file, help="lexicon TSV (term<TAB>score)")
    group.add_argument("--toy-lexicon", dest="lexicon", action="store_const",
                       const=TOY_LEXICON, help="use the shipped toy lexicon")
    p.add_argument("--out", type=_output_file, required=True,
                   help="scored CSV (id,timestamp,value,hits)")
    p.add_argument("--summary", type=_output_file, help="optional summary JSON")

    p = command("timeseries", cmd_timeseries, "bucket a corpus or scored CSV into a time series")
    p.add_argument("--kind", choices=("frequency", "sentiment"), required=True)
    p.add_argument("--in", dest="infile", type=_input_file, required=True,
                   help="corpus file (frequency) or scored CSV (sentiment)")
    p.add_argument("--format", choices=("jsonl", "tsv"),
                   help="corpus format for --kind frequency (default jsonl)")
    p.add_argument("--bucket", choices=FREQUENCY_BUCKETS, default="day")
    p.add_argument("--tz", **_TZ_FLAG)
    p.add_argument("--out", type=_output_file, required=True, help="series CSV")
    p.add_argument("--ma", type=_positive_int,
                   help="moving-average window (emits bucket,mean,n)")
    p.add_argument("--centered", action="store_true",
                   help="center the moving-average window instead of trailing")
    p.add_argument("--events", type=_input_file, help="events JSON to attach to buckets")
    p.add_argument("--events-out", type=_output_file,
                   help="where to write the event-marker report")
    p.add_argument("--drop-reposts", action="store_true",
                   help="frequency only: skip reposts")
    p.add_argument("--nonzero-only", action="store_true",
                   help="sentiment only: drop zero-score messages before averaging")

    p = command("annotate-sample", cmd_annotate_sample,
                "draw a deduplicated on-topic sample for manual labeling")
    _add_corpus_flags(p)
    _add_query_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rate", type=_rate, help="per-message sampling rate in (0,1]")
    group.add_argument("--n", type=_positive_int, help="exact sample size")
    p.add_argument("--out", type=_output_file, required=True,
                   help="annotation TSV template (empty label column)")

    p = command("kappa", cmd_kappa, "inter-annotator agreement between two label TSVs")
    p.add_argument("--a", type=_input_file, required=True, help="first annotator's TSV")
    p.add_argument("--b", type=_input_file, required=True, help="second annotator's TSV")

    p = command("train", cmd_train, "train a stance classifier on a labeled TSV")
    p.add_argument("--labels", type=_input_file, required=True,
                   help="label<TAB>text training file")
    _add_hyperparam_flags(p, defaults)
    p.add_argument("--out", type=_output_file, required=True, help="model file")

    p = command("grid-search", cmd_grid_search, "pick hyperparameters on an 80/10/10 split")
    p.add_argument("--labels", type=_input_file, required=True, help="label<TAB>text file")
    p.add_argument("--objective", choices=("accuracy", "fraction_score"),
                   default="fraction_score")
    for flag, convert, default, (low, high) in (("--dims", int, defaults.dim, DIM_RANGE),
                                                ("--epochs", int, defaults.epochs, EPOCHS_RANGE),
                                                ("--lrs", float, defaults.lr, LR_RANGE)):
        p.add_argument(flag, type=_list_within(convert, low, high), default=[default],
                       help=f"comma list, each in [{low},{high}]")
    _add_hash_flags(p, defaults)
    p.add_argument("--out", type=_output_file, help="report JSON (default stdout)")

    p = command("learning-curve", cmd_learning_curve,
                "accuracy and fraction score vs training-set size")
    p.add_argument("--labels", type=_input_file, required=True, help="label<TAB>text file")
    _add_hyperparam_flags(p, defaults)
    p.add_argument("--sizes", type=_sizes, required=True,
                   help="comma list of increasing training sizes")
    p.add_argument("--repeats", type=_positive_int, default=1,
                   help="repeats per size (default 1)")
    p.add_argument("--test-size", type=_positive_int,
                   help="held-out size (default: everything beyond the largest train size)")
    p.add_argument("--out", type=_output_file, help="curve CSV (default stdout)")

    p = command("predict", cmd_predict, "label one text or a whole corpus with a trained model")
    p.add_argument("--model", type=_input_file, required=True, help="model file from train")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="classify this text and print JSON")
    group.add_argument("--in", dest="infile", type=_input_file, help="corpus to label")
    p.add_argument("--format", choices=("jsonl", "tsv"))
    p.add_argument("--out", type=_output_file, help="labeled JSONL (required with --in)")

    p = command("stance-series", cmd_stance_series, "stance rates per bucket from predict output")
    p.add_argument("--in", dest="infile", type=_input_file, required=True,
                   help="labeled JSONL from predict")
    p.add_argument("--bucket", choices=STANCE_BUCKETS, default="day")
    p.add_argument("--tz", **_TZ_FLAG)
    p.add_argument("--out", type=_output_file, required=True, help="stance CSV")

    p = command("correlate", cmd_correlate, "Pearson r between two series CSVs over shared buckets")
    p.add_argument("--a", type=_input_file, required=True, help="first series CSV")
    p.add_argument("--b", type=_input_file, required=True,
                   help="second series CSV (may be date,value)")
    p.add_argument("--out", type=_output_file, help="optional result JSON")

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code (0, 1 or 2).

    Each ``cmd_*`` returns its run-record fields; with ``--log``, stderr
    gets a ``"run"`` record first and, after success, one final record
    named after the command, with the run's ``wall_s`` and ``peak_rss_mb``
    (forked workers included). Library warnings, such as rejected corpus
    lines, go to ``sys.stderr`` for the length of the run. In-process,
    ``main()`` leaves the ``opinionpulse`` logger as it found it: its
    handlers, level and ``propagate`` flag are restored on every exit path.
    """
    start = time.perf_counter()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # as sys.exit reads it: None is 0 and a message is 1
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    with _setup_logging(args.log):
        if args.log:
            _log(event="run", command=args.command, seed=args.seed)
        try:
            _check_flags(args)
            fields = args.func(args)
        except (UsageError, InputError, ValueError) as exc:
            # a ValueError is a library-level contract violation driven by file contents
            print(f"error: {exc}", file=sys.stderr)
            return 1 if isinstance(exc, UsageError) else 2
        if args.log:
            import resource  # ru_maxrss is in KiB; children are the waited-for workers
            peak = max(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            _log(event=args.command, **fields, wall_s=round(time.perf_counter() - start, 4),
                 peak_rss_mb=round(peak / 1024, 2))
        return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
