"""Command-line frontend for the opinion pipeline.

Subcommands compose over files: filter a corpus, score it, aggregate it,
train and apply a stance classifier. Every run with the same flags and
inputs produces byte-identical outputs; output files are written to a
temp file and renamed, so a failing run never leaves partial files.

Exit codes: 0 success, 1 usage error (bad flags, missing files),
2 data error (a file exists but violates its format).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import __version__
from .corpus import dedup, filter_lang, ingest, message_to_record
from .exceptions import InputError
from .filterkit import expand_query, iter_partition, load_builtin_query, load_query
from .polarity import (load_lexicon, read_scored_csv, score_stream, toy_lexicon_path,
                       write_scored_csv)
from .stance import (
    Hyperparams,
    grid_hyperparams,
    grid_search,
    kappa,
    label_corpus,
    learning_curve,
    load_model,
    predict,
    prepare_annotation_set,
    read_labeled_tsv,
    save_model,
    train,
)
from .stance.data import (probs_dict, read_label_column, read_labeled_jsonl,
                          write_annotation_template, write_labeled_jsonl)
from .timeseries import (
    DEFAULT_TZ_OFFSET,
    FREQUENCY_BUCKETS,
    STANCE_BUCKETS,
    annotate_events,
    correlate,
    frequency_series,
    load_events,
    moving_average,
    parse_tz_offset,
    read_series_csv,
    sentiment_series,
    stance_series,
    write_frequency_csv,
    write_stance_csv,
    write_value_csv,
)

logger = logging.getLogger(__name__)


class UsageError(Exception):
    """A flag or referenced path is wrong; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; 2 is reserved for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _log(enabled: bool, **fields) -> None:
    if enabled:
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
        class _JsonFormatter(logging.Formatter):
            def format(self, record):
                return json.dumps(
                    {
                        "event": "log",
                        "level": record.levelname.lower(),
                        "logger": record.name,
                        "message": record.getMessage(),
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )

        handler.setFormatter(_JsonFormatter())
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
    """Yield a temp path that replaces ``path`` only if the body succeeds."""
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        raise UsageError(f"output directory does not exist: {parent}")
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=f".{path.name}.")
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
    with _atomic_path(path) as tmp:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            yield handle


@contextmanager
def _out_handle(path):
    """Atomic file handle, or stdout when no path was given."""
    if path is None:
        yield sys.stdout
    else:
        with _atomic_text(path) as handle:
            yield handle


def _write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON to ``path``, or stdout."""
    with _out_handle(path) as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")


def _require_file(value, flag: str) -> Path:
    path = Path(value)
    if not path.is_file():
        raise UsageError(f"{flag}: file not found: {path}")
    return path


def _load_query_arg(args):
    if args.builtin:
        try:
            return load_builtin_query(args.builtin)
        except InputError as exc:
            raise UsageError(f"--builtin: {exc}") from None
    _require_file(args.query, "--query")
    return load_query(args.query)


def _load_lexicon_arg(args):
    if args.toy_lexicon:
        return load_lexicon(toy_lexicon_path())
    _require_file(args.lexicon, "--lexicon")
    return load_lexicon(args.lexicon)


def _parse_tz_arg(value):
    try:
        return parse_tz_offset(value)
    except InputError as exc:
        raise UsageError(f"--tz: {exc}") from None


def _int_list(flag: str, value: str) -> list[int]:
    try:
        return [int(item) for item in value.split(",") if item.strip()]
    except ValueError:
        raise UsageError(f"{flag}: expected a comma-separated list of integers") from None


def _float_list(flag: str, value: str) -> list[float]:
    try:
        return [float(item) for item in value.split(",") if item.strip()]
    except ValueError:
        raise UsageError(f"{flag}: expected a comma-separated list of numbers") from None


def _hyperparams_from(args) -> Hyperparams:
    try:
        return Hyperparams(
            dim=args.dim,
            epochs=args.epochs,
            lr=args.lr,
            char_ngram_min=args.char_ngram_min,
            char_ngram_max=args.char_ngram_max,
            bucket=args.bucket,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_filter(args) -> int:
    query = _load_query_arg(args)
    _require_file(args.infile, "--in")
    if args.lang is not None and (not args.lang.isalpha() or not 2 <= len(args.lang) <= 3):
        raise UsageError(f"--lang: invalid language tag {args.lang!r}")

    stream = ingest(args.infile, fmt=args.format)
    msgs = iter(stream)
    if args.lang:
        msgs = filter_lang(msgs, args.lang)
    if args.drop_reposts:
        msgs = (m for m in msgs if not m.is_repost)
    if args.dedup != "none":
        msgs = dedup(msgs, mode=args.dedup)

    matched = unmatched = 0
    with ExitStack() as stack:
        out = stack.enter_context(_atomic_text(args.out))
        rest = stack.enter_context(_atomic_text(args.unmatched_out)) if args.unmatched_out else None
        for msg, hit in iter_partition(msgs, query):
            matched += hit
            unmatched += not hit
            handle = out if hit else rest
            if handle is not None:
                handle.write(json.dumps(message_to_record(msg), ensure_ascii=False) + "\n")

    if args.stats:
        _write_json(args.stats, stream.stats.to_dict())
    _log(args.log, event="filter", query=query.name, matched=matched,
         unmatched=unmatched, rejected_lines=stream.stats.rejected)
    return 0


def cmd_expand_query(args) -> int:
    query = _load_query_arg(args)
    _require_file(args.infile, "--in")
    if args.rounds < 1:
        raise UsageError("--rounds must be at least 1")
    if args.top_k < 1:
        raise UsageError("--top-k must be at least 1")
    if args.min_count < 1:
        raise UsageError("--min-count must be at least 1")

    # multiple ranking rounds re-read the corpus, so it is materialized
    stream = ingest(args.infile, fmt=args.format)
    report = expand_query(query, list(stream), rounds=args.rounds, top_k=args.top_k,
                          min_count=args.min_count)
    _write_json(args.out, report.to_dict())
    _log(args.log, event="expand-query", query=query.name, rounds=args.rounds,
         rejected_lines=stream.stats.rejected)
    return 0


def cmd_sentiment(args) -> int:
    lexicon = _load_lexicon_arg(args)
    _require_file(args.infile, "--in")
    stream = ingest(args.infile, fmt=args.format)
    scored = score_stream(lexicon, stream)

    with _atomic_text(args.out) as handle:
        write_scored_csv(scored, handle)
    if args.summary:
        _write_json(args.summary, scored.summary.to_dict())
    _log(args.log, event="sentiment", lexicon=lexicon.name, scored=scored.summary.n,
         nonzero=scored.summary.nonzero, rejected_lines=stream.stats.rejected)
    return 0


def cmd_timeseries(args) -> int:
    _require_file(args.infile, "--in")
    tz = _parse_tz_arg(args.tz)
    if args.ma is not None and args.ma < 1:
        raise UsageError("--ma must be at least 1")
    if args.events and not args.events_out:
        raise UsageError("--events requires --events-out")

    log_fields = {}
    if args.kind == "frequency":
        stream = ingest(args.infile, fmt=args.format)
        msgs = iter(stream)
        if args.drop_reposts:
            msgs = (m for m in msgs if not m.is_repost)
        points = frequency_series(msgs, bucket=args.bucket, tz=tz)
        log_fields["rejected_lines"] = stream.stats.rejected
    else:
        pairs = read_scored_csv(args.infile)
        if args.nonzero_only:
            pairs = ((ts, value) for ts, value in pairs if value != 0.0)
        points = sentiment_series(pairs, bucket=args.bucket, tz=tz)

    smoothed = args.ma is not None
    if smoothed:
        points = moving_average(points, window=args.ma, centered=args.centered)

    with _atomic_text(args.out) as handle:
        # a smoothed count series has fractional values, so it switches
        # to the mean-style schema
        if args.kind == "frequency" and not smoothed:
            write_frequency_csv(points, handle)
        else:
            write_value_csv(points, handle)

    if args.events:
        _require_file(args.events, "--events")
        events = load_events(args.events)
        _write_json(args.events_out, annotate_events(points, events, bucket=args.bucket).to_dict())

    _log(args.log, event="timeseries", kind=args.kind, bucket=args.bucket,
         points=len(points), **log_fields)
    return 0


def cmd_annotate_sample(args) -> int:
    query = _load_query_arg(args)
    _require_file(args.infile, "--in")
    if args.rate is not None and not 0 < args.rate <= 1:
        raise UsageError("--rate must be in (0, 1]")
    if args.n is not None and args.n < 1:
        raise UsageError("--n must be positive")

    stream = ingest(args.infile, fmt=args.format)
    selected = prepare_annotation_set(stream, query, rate=args.rate, n=args.n, seed=args.seed)
    with _atomic_text(args.out) as handle:
        count = write_annotation_template(selected, handle)
    _log(args.log, event="annotate-sample", query=query.name, selected=count,
         rejected_lines=stream.stats.rejected)
    return 0


def cmd_kappa(args) -> int:
    _require_file(args.a, "--a")
    _require_file(args.b, "--b")
    report = kappa(read_label_column(args.a), read_label_column(args.b))
    print(f"kappa={report.kappa!r}")
    print(f"observed_agreement={report.observed_agreement!r}")
    print(f"expected_agreement={report.expected_agreement!r}")
    print(f"n={report.n}")
    return 0


def cmd_train(args) -> int:
    _require_file(args.labels, "--labels")
    hp = _hyperparams_from(args)
    examples = read_labeled_tsv(args.labels)
    model = train(examples, hp)
    with _atomic_path(args.out) as tmp:
        save_model(model, tmp)
    _log(args.log, event="train", examples=len(examples),
         final_loss=model.loss_history[-1], **hp.to_dict())
    return 0


def cmd_grid_search(args) -> int:
    _require_file(args.labels, "--labels")
    dims = _int_list("--dims", args.dims)
    epochs_values = _int_list("--epochs", args.epochs)
    lrs = _float_list("--lrs", args.lrs)
    try:
        grid = grid_hyperparams(
            dims, epochs_values, lrs,
            char_ngram_min=args.char_ngram_min,
            char_ngram_max=args.char_ngram_max,
            bucket=args.bucket,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    examples = read_labeled_tsv(args.labels)
    result = grid_search(examples, grid, objective=args.objective, seed=args.seed)
    _write_json(args.out, result.to_dict())
    _log(args.log, event="grid-search", configs=len(grid),
         objective=args.objective, best=result.best.to_dict())
    return 0


def cmd_learning_curve(args) -> int:
    _require_file(args.labels, "--labels")
    hp = _hyperparams_from(args)
    sizes = _int_list("--sizes", args.sizes)
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    examples = read_labeled_tsv(args.labels)
    points = learning_curve(
        examples, hp,
        train_sizes=sizes,
        repeats=args.repeats,
        seed=args.seed,
        test_size=args.test_size,
    )
    with _out_handle(args.out) as handle:
        handle.write("size,mean_accuracy,mean_fraction_score\n")
        for point in points:
            frac = "" if point.mean_fraction_score is None else repr(point.mean_fraction_score)
            handle.write(f"{point.size},{point.mean_accuracy!r},{frac}\n")
    _log(args.log, event="learning-curve", sizes=sizes, repeats=args.repeats)
    return 0


def cmd_predict(args) -> int:
    _require_file(args.model, "--model")
    model = load_model(args.model)

    if args.text is not None:
        label, probs = predict(model, args.text)
        print(json.dumps({"label": label, "probs": probs_dict(model.labels, probs)},
                         ensure_ascii=False, sort_keys=True))
        return 0

    _require_file(args.infile, "--in")
    if not args.out:
        raise UsageError("--in requires --out")
    stream = ingest(args.infile, fmt=args.format)
    with _atomic_text(args.out) as handle:
        labeled = write_labeled_jsonl(label_corpus(model, stream), model.labels, handle)
    _log(args.log, event="predict", labeled=labeled, rejected_lines=stream.stats.rejected)
    return 0


def cmd_stance_series(args) -> int:
    _require_file(args.infile, "--in")
    tz = _parse_tz_arg(args.tz)
    series = stance_series(read_labeled_jsonl(args.infile), bucket=args.bucket, tz=tz)
    with _atomic_text(args.out) as handle:
        write_stance_csv(series, handle)
    _log(args.log, event="stance-series", bucket=args.bucket, points=len(series))
    return 0


def cmd_correlate(args) -> int:
    _require_file(args.a, "--a")
    _require_file(args.b, "--b")
    r, n_overlap = correlate(read_series_csv(args.a), read_series_csv(args.b))
    if args.out:
        _write_json(args.out, {"r": r, "n_overlap": n_overlap})
    print(f"r={r!r}")
    print(f"n_overlap={n_overlap}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_query_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="topic query JSON file")
    group.add_argument("--builtin",
                       help="shipped query: table2 (alias pandemic) or "
                            "socialdistancing (alias social-distancing)")


def _add_corpus_flags(parser) -> None:
    parser.add_argument("--in", dest="infile", required=True, help="input corpus file")
    parser.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl",
                        help="corpus format (default jsonl)")


def _add_hyperparam_flags(parser) -> None:
    parser.add_argument("--dim", type=int, default=10, help="embedding width (default 10)")
    parser.add_argument("--epochs", type=int, default=10, help="training epochs (default 10)")
    parser.add_argument("--lr", type=float, default=0.2, help="initial learning rate (default 0.2)")
    _add_hash_flags(parser)


def _add_hash_flags(parser) -> None:
    parser.add_argument("--char-ngram-min", type=int, default=3,
                        help="shortest hashed character n-gram (default 3)")
    parser.add_argument("--char-ngram-max", type=int, default=6,
                        help="longest hashed character n-gram (default 6)")
    parser.add_argument("--bucket", type=int, default=2_000_000,
                        help="hash buckets for character n-grams (default 2000000)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42,
                        help="seed for anything random (default 42)")
    common.add_argument("--log", action="store_true",
                        help="emit a JSON-lines run log on stderr")

    parser = _Parser(prog="opinionpulse",
                     description="Corpus-to-conclusions opinion pipeline.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("filter", parents=[common],
                       help="keep messages that match a topic query")
    _add_corpus_flags(p)
    _add_query_flags(p)
    p.add_argument("--out", required=True, help="matched messages, JSONL")
    p.add_argument("--unmatched-out", help="optional JSONL for the rest")
    p.add_argument("--stats", help="optional ingest-stats JSON")
    p.add_argument("--lang", help="keep only this language tag (plus untagged)")
    p.add_argument("--dedup", choices=("none", "by_id", "by_exact_text"), default="none",
                   help="duplicate removal before filtering (default none)")
    p.add_argument("--drop-reposts", action="store_true",
                   help="skip reposts instead of counting them")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("expand-query", parents=[common],
                       help="rank candidate query terms by collocation t-score")
    _add_corpus_flags(p)
    _add_query_flags(p)
    p.add_argument("--rounds", type=int, default=1, help="ranking rounds (default 1)")
    p.add_argument("--top-k", type=int, default=20, help="candidates per round (default 20)")
    p.add_argument("--min-count", type=int, default=5,
                   help="minimum matched-side count for a candidate (default 5)")
    p.add_argument("--out", help="report JSON (default stdout)")
    p.set_defaults(func=cmd_expand_query)

    p = sub.add_parser("sentiment", parents=[common],
                       help="score each message against a polarity lexicon")
    _add_corpus_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lexicon", help="lexicon TSV (term<TAB>score)")
    group.add_argument("--toy-lexicon", action="store_true", help="use the shipped toy lexicon")
    p.add_argument("--out", required=True, help="scored CSV (id,timestamp,value,hits)")
    p.add_argument("--summary", help="optional summary JSON")
    p.set_defaults(func=cmd_sentiment)

    p = sub.add_parser("timeseries", parents=[common],
                       help="bucket a corpus or scored CSV into a time series")
    p.add_argument("--kind", choices=("frequency", "sentiment"), required=True)
    p.add_argument("--in", dest="infile", required=True,
                   help="corpus file (frequency) or scored CSV (sentiment)")
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl",
                   help="corpus format for --kind frequency (default jsonl)")
    p.add_argument("--bucket", choices=FREQUENCY_BUCKETS, default="day")
    p.add_argument("--tz", default=DEFAULT_TZ_OFFSET,
                   help=f"bucketing offset (default {DEFAULT_TZ_OFFSET})")
    p.add_argument("--out", required=True, help="series CSV")
    p.add_argument("--ma", type=int, help="moving-average window (emits bucket,mean,n)")
    p.add_argument("--centered", action="store_true",
                   help="center the moving-average window instead of trailing")
    p.add_argument("--events", help="events JSON to attach to buckets")
    p.add_argument("--events-out", help="where to write the event-marker report")
    p.add_argument("--drop-reposts", action="store_true",
                   help="frequency only: skip reposts")
    p.add_argument("--nonzero-only", action="store_true",
                   help="sentiment only: drop zero-score messages before averaging")
    p.set_defaults(func=cmd_timeseries)

    p = sub.add_parser("annotate-sample", parents=[common],
                       help="draw a deduplicated on-topic sample for manual labeling")
    _add_corpus_flags(p)
    _add_query_flags(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rate", type=float, help="per-message sampling rate in (0,1]")
    group.add_argument("--n", type=int, help="exact sample size")
    p.add_argument("--out", required=True, help="annotation TSV template (empty label column)")
    p.set_defaults(func=cmd_annotate_sample)

    p = sub.add_parser("kappa", parents=[common],
                       help="inter-annotator agreement between two label TSVs")
    p.add_argument("--a", required=True, help="first annotator's TSV")
    p.add_argument("--b", required=True, help="second annotator's TSV")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("train", parents=[common],
                       help="train a stance classifier on a labeled TSV")
    p.add_argument("--labels", required=True, help="label<TAB>text training file")
    _add_hyperparam_flags(p)
    p.add_argument("--out", required=True, help="model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", parents=[common],
                       help="pick hyperparameters on an 80/10/10 split")
    p.add_argument("--labels", required=True, help="label<TAB>text file")
    p.add_argument("--objective", choices=("accuracy", "fraction_score"),
                   default="fraction_score")
    p.add_argument("--dims", default="10", help="comma list, each in [10,300]")
    p.add_argument("--epochs", default="10", help="comma list, each in [10,500]")
    p.add_argument("--lrs", default="0.2", help="comma list, each in [0.05,1.0]")
    _add_hash_flags(p)
    p.add_argument("--out", help="report JSON (default stdout)")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("learning-curve", parents=[common],
                       help="accuracy and fraction score vs training-set size")
    p.add_argument("--labels", required=True, help="label<TAB>text file")
    _add_hyperparam_flags(p)
    p.add_argument("--sizes", required=True, help="comma list of training sizes")
    p.add_argument("--repeats", type=int, default=1, help="repeats per size (default 1)")
    p.add_argument("--test-size", type=int,
                   help="held-out size (default: everything beyond the largest train size)")
    p.add_argument("--out", help="curve CSV (default stdout)")
    p.set_defaults(func=cmd_learning_curve)

    p = sub.add_parser("predict", parents=[common],
                       help="label one text or a whole corpus with a trained model")
    p.add_argument("--model", required=True, help="model file from train")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="classify this text and print JSON")
    group.add_argument("--in", dest="infile", help="corpus to label")
    p.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    p.add_argument("--out", help="labeled JSONL (required with --in)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stance-series", parents=[common],
                       help="stance rates per bucket from predict output")
    p.add_argument("--in", dest="infile", required=True, help="labeled JSONL from predict")
    p.add_argument("--bucket", choices=STANCE_BUCKETS, default="day")
    p.add_argument("--tz", default=DEFAULT_TZ_OFFSET,
                   help=f"bucketing offset (default {DEFAULT_TZ_OFFSET})")
    p.add_argument("--out", required=True, help="stance CSV")
    p.set_defaults(func=cmd_stance_series)

    p = sub.add_parser("correlate", parents=[common],
                       help="Pearson r between two series CSVs over shared buckets")
    p.add_argument("--a", required=True, help="first series CSV")
    p.add_argument("--b", required=True, help="second series CSV (may be date,value)")
    p.add_argument("--out", help="optional result JSON")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code (0, 1 or 2).

    Library warnings, such as rejected corpus lines, go to ``sys.stderr``
    for the length of the run. Called in-process, ``main()`` leaves the
    ``opinionpulse`` logger as it found it: its handlers, level and
    ``propagate`` flag are restored on every exit path, exceptions included.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    with _setup_logging(args.log):
        _log(args.log, event="run", command=args.command, seed=args.seed)
        try:
            return args.func(args)
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            # library-level contract violations driven by file contents
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entrypoint() -> None:
    sys.exit(main())
