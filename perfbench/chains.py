"""The three workload chains, as CLI stages and as in-process library calls.

``cli_stages`` lists the ``opinionpulse`` invocations of one chain pass;
each runs as its own process. ``IN_PROCESS`` holds the same chains as
direct calls of the public functions ``cli.py`` calls, for the traced run.
Where ``cli.py`` does its own glue (writing records, replaying its own CSV
and JSONL outputs) the in-process chain does the equivalent here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

from checks import annotate_n

STANCE_FLAGS = ["--dim", "50", "--epochs", "10", "--lr", "0.2"]
GRID_DIMS, GRID_EPOCHS, GRID_LRS = [10, 50], [10], [0.2]


def cli_stages(workload: str, inp: Path, out: Path, sample_n: int = 0) -> list:
    """(stage name, argv, output files) for every stage of one pass."""
    i, o = (lambda name: str(inp / name)), (lambda name: str(out / name))
    if workload == "trend":
        return [
            ("filter", ["filter", "--in", i("corpus.jsonl"), "--builtin", "table2", "--lang", "nl",
                        "--drop-reposts", "--dedup", "by_id", "--out", o("matched.jsonl"),
                        "--stats", o("ingest_stats.json")],
             ["matched.jsonl", "ingest_stats.json"]),
            ("sentiment", ["sentiment", "--in", o("matched.jsonl"), "--lexicon", i("lexicon.tsv"),
                           "--out", o("scored.csv"), "--summary", o("score_summary.json")],
             ["scored.csv", "score_summary.json"]),
            ("timeseries_freq_day", ["timeseries", "--kind", "frequency", "--in", o("matched.jsonl"),
                                     "--bucket", "day", "--events", i("events.json"),
                                     "--events-out", o("markers.json"),
                                     "--out", o("volume_daily.csv")],
             ["volume_daily.csv", "markers.json"]),
            ("timeseries_sent_hour", ["timeseries", "--kind", "sentiment", "--in", o("scored.csv"),
                                      "--bucket", "hour", "--out", o("sentiment_hourly.csv")],
             ["sentiment_hourly.csv"]),
            ("timeseries_sent_day_ma7", ["timeseries", "--kind", "sentiment", "--in", o("scored.csv"),
                                         "--bucket", "day", "--ma", "7",
                                         "--out", o("sentiment_daily_ma7.csv")],
             ["sentiment_daily_ma7.csv"]),
            ("correlate", ["correlate", "--a", o("sentiment_daily_ma7.csv"),
                           "--b", i("indicator.csv"), "--out", o("correlation.json")],
             ["correlation.json"]),
        ]
    if workload == "stance":
        return [
            ("train", ["train", "--labels", i("labels.tsv"), *STANCE_FLAGS,
                       "--out", o("stance_model.bin")], ["stance_model.bin"]),
            ("predict", ["predict", "--model", o("stance_model.bin"), "--in", i("corpus.jsonl"),
                         "--out", o("labeled.jsonl")], ["labeled.jsonl"]),
            ("stance_series", ["stance-series", "--in", o("labeled.jsonl"), "--bucket", "week",
                               "--out", o("stance_weekly.csv")], ["stance_weekly.csv"]),
        ]
    if workload == "curate":
        return [
            ("expand_query", ["expand-query", "--in", i("corpus.jsonl"),
                              "--builtin", "socialdistancing", "--out", o("expansion.json")],
             ["expansion.json"]),
            ("annotate_sample", ["annotate-sample", "--in", i("corpus.jsonl"),
                                 "--builtin", "socialdistancing", "--n", str(sample_n),
                                 "--out", o("to_label.tsv")], ["to_label.tsv"]),
            ("grid_search", ["grid-search", "--labels", i("labels.tsv"),
                             "--dims", ",".join(map(str, GRID_DIMS)),
                             "--epochs", ",".join(map(str, GRID_EPOCHS)),
                             "--lrs", ",".join(map(str, GRID_LRS)), "--out", o("grid.json")],
             ["grid.json"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


ALL_STAGES = [name for w in ("trend", "stance", "curate") for name, _, _ in cli_stages(w, Path(), Path())]

# the setup every command of the workload pays before its first message
SETUP_LOADS = {
    "trend": "from opinionpulse.filterkit import load_builtin_query\n"
             "from opinionpulse.polarity import load_lexicon\n"
             "load_builtin_query('table2')\n"
             "load_lexicon(sys.argv[1])",
    "stance": "from opinionpulse.stance import load_model\n"
              "load_model(sys.argv[1])",
    "curate": "from opinionpulse.filterkit import load_builtin_query\n"
              "load_builtin_query('socialdistancing')",
}


def setup_arg(workload: str, inp: Path, out: Path) -> str:
    return {"trend": str(inp / "lexicon.tsv"), "stance": str(out / "stance_model.bin"),
            "curate": ""}[workload]


# ---------------------------------------------------------------------------
# in-process chains


def load_program() -> SimpleNamespace:
    """The program's modules; imported late so ``sys.path`` can point at the checkout."""
    from opinionpulse import corpus, filterkit, polarity, stance, timeseries, tokenization
    from opinionpulse.stance import data as stance_data, evaluation, model

    return SimpleNamespace(corpus=corpus, filterkit=filterkit, polarity=polarity, stance=stance,
                           timeseries=timeseries, tokenization=tokenization,
                           stance_data=stance_data, evaluation=evaluation, model=model)


def instrument(tracer, op) -> None:
    """Route calls that cross layer boundaries inside the library through spans."""
    tracer.patch("tokenization.tokenize", op.tokenization.tokenize)
    tracer.patch("tokenization.count_tokens", op.tokenization.count_tokens)
    tracer.patch("filterkit.keyword_match", op.filterkit.keyword_match, count=_hits)
    tracer.patch("filterkit.regex_match", op.filterkit.regex_match, count=_hits)
    tracer.patch("corpus.dedup", op.corpus.dedup, stream=True)
    tracer.patch("corpus.sample", op.corpus.sample)
    tracer.patch("polarity.score", op.polarity.score)
    evaluation = ["opinionpulse.stance.evaluation"]
    tracer.patch("stance.train", op.model.train, modules=evaluation, count=model_rows)
    tracer.patch("stance.evaluate", op.evaluation.evaluate, modules=evaluation,
                 count=lambda args, result: len(args[1]))


def _hits(args, matched) -> int:
    """Match spans count hits; their calls count the messages tested."""
    return int(bool(matched))


def model_rows(args, model) -> int:
    """Embedding rows held by a trained model."""
    return int(model.E.shape[0])


def _sum_n(args, points) -> int:
    return sum(p.n for p in points)


def _replay_scored(op, path):
    """cli.py's scored-CSV replay: (timestamp, value) pairs."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        next(rows)
        for row in rows:
            yield op.corpus.parse_timestamp(row[1]), float(row[2])


def _replay_labeled(op, path):
    """cli.py's predict-output replay: (timestamp, stance) pairs."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            yield op.corpus.parse_timestamp(record["created_at"]), record["stance"]


def _dump_json(payload, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")


def trend(op, t, inputs, inp: Path, out: Path) -> dict:
    C, F, P, T = op.corpus, op.filterkit, op.polarity, op.timeseries
    facts = {}
    record_line = t.wrap("corpus.record_dumps",
                         lambda msg: json.dumps(C.message_to_record(msg), ensure_ascii=False))
    with t.stage("filter"):
        query = t.call("filterkit.load_query", F.load_builtin_query, "table2")
        stream = C.ingest(inp / "corpus.jsonl")
        msgs = t.iterate("corpus.filter_lang", C.filter_lang(t.iterate("corpus.ingest", stream), "nl"))
        msgs = C.dedup((m for m in msgs if not m.is_repost), mode="by_id")
        matched = 0
        with open(out / "matched.jsonl", "w", encoding="utf-8") as handle:
            for msg, hit in t.iterate("filterkit.partition", F.iter_partition(msgs, query)):
                line = record_line(msg)
                if hit:
                    handle.write(line + "\n")
                    matched += 1
        facts.update(matched=matched, rejected=stream.stats.rejected)

    tz = T.parse_tz_offset(T.DEFAULT_TZ_OFFSET)
    with t.stage("sentiment"):
        lexicon = t.call("polarity.load_lexicon", P.load_lexicon, inp / "lexicon.tsv")
        scored = P.score_stream(lexicon, t.iterate("corpus.ingest", C.ingest(out / "matched.jsonl")))
        with open(out / "scored.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(("id", "timestamp", "value", "hits"))
            for msg, polarity in t.iterate("polarity.score_stream", scored):
                writer.writerow([msg.id, msg.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                                 repr(polarity.value), polarity.hits])
        facts["nonzero_frac"] = scored.summary.nonzero_fraction

    with t.stage("timeseries_freq_day"):
        msgs = t.iterate("corpus.ingest", C.ingest(out / "matched.jsonl"))
        points = t.call("timeseries.frequency", T.frequency_series, msgs, bucket="day", tz=tz,
                        count=_sum_n)
        with open(out / "volume_daily.csv", "w", encoding="utf-8") as handle:
            t.call("timeseries.write_csv", T.write_frequency_csv, points, handle)
        events = t.call("timeseries.load_events", T.load_events, inp / "events.json")
        annotated = t.call("timeseries.annotate_events", T.annotate_events, points, events,
                           bucket="day")
        _dump_json({"markers": {T.format_bucket(b): list(v) for b, v in annotated.markers.items()},
                    "out_of_range": [e.label for e in annotated.out_of_range]},
                   out / "markers.json")
        facts["frequency_total"] = sum(p.n for p in points)

    for stage, bucket, window, name in (("timeseries_sent_hour", "hour", None, "sentiment_hourly"),
                                        ("timeseries_sent_day_ma7", "day", 7, "sentiment_daily_ma7")):
        with t.stage(stage):
            pairs = t.iterate("bench.replay", _replay_scored(op, out / "scored.csv"))
            points = t.call("timeseries.sentiment", T.sentiment_series, pairs, bucket=bucket,
                            tz=tz, count=_sum_n)
            if window:
                points = t.call("timeseries.moving_average", T.moving_average, points,
                                window=window)
            with open(out / f"{name}.csv", "w", encoding="utf-8") as handle:
                t.call("timeseries.write_csv", T.write_value_csv, points, handle)

    with t.stage("correlate"):
        a = t.call("timeseries.read_series", T.read_series_csv, out / "sentiment_daily_ma7.csv")
        b = t.call("timeseries.read_series", T.read_series_csv, inp / "indicator.csv")
        r, n_overlap = t.call("timeseries.correlate", T.correlate, a, b)
        _dump_json({"r": r, "n_overlap": n_overlap}, out / "correlation.json")
        facts["r"] = r
    return facts


def score_toy(op, t, out: Path) -> None:
    """Score the matched messages again with the shipped 10-emoji toy lexicon."""
    with t.stage("toy"):
        lexicon = op.polarity.load_lexicon(op.polarity.toy_lexicon_path())
        texts = [m.text for m in op.corpus.ingest(out / "matched.jsonl")]
        score = op.polarity.score
        for text in texts:
            score(lexicon, text)


def stance(op, t, inputs, inp: Path, out: Path) -> dict:
    C, S, T = op.corpus, op.stance, op.timeseries
    facts = {}
    model_path = out / "stance_model.bin"
    with t.stage("train"):
        hp = S.Hyperparams(dim=50, epochs=10, lr=0.2, seed=42)
        examples = t.call("stance.read_labels", S.read_labeled_tsv, inp / "labels.tsv")
        model = t.call("stance.train", S.train, examples, hp, count=model_rows)
        t.call("stance.save_model", S.save_model, model, model_path)
        del model
    facts["model_mb"] = model_path.stat().st_size / 2**20

    record_line = t.wrap("corpus.record_dumps", _labeled_line)
    with t.stage("predict"):
        model = t.call("stance.load_model", S.load_model, model_path)
        stream = C.ingest(inp / "corpus.jsonl")
        labeled = S.label_corpus(model, t.iterate("corpus.ingest", stream))
        count = 0
        with open(out / "labeled.jsonl", "w", encoding="utf-8") as handle:
            for msg, label, probs in t.iterate("stance.predict", labeled):
                handle.write(record_line(C, model.labels, msg, label, probs) + "\n")
                count += 1
        del model, labeled
        facts.update(predicted=count, rejected=stream.stats.rejected)

    with t.stage("stance_series"):
        pairs = t.iterate("bench.replay", _replay_labeled(op, out / "labeled.jsonl"))
        series = t.call("timeseries.stance", T.stance_series, pairs, bucket="week",
                        tz=T.parse_tz_offset(T.DEFAULT_TZ_OFFSET), count=_sum_n)
        with open(out / "stance_weekly.csv", "w", encoding="utf-8") as handle:
            t.call("timeseries.write_csv", T.write_stance_csv, series, handle)
        facts["series_total"] = sum(r.n for r in series)
    return facts


def _labeled_line(C, labels, msg, label, probs) -> str:
    record = C.message_to_record(msg)
    record["stance"] = label
    record["probs"] = {name: float(p) for name, p in zip(labels, probs)}
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def curate(op, t, inputs, inp: Path, out: Path) -> dict:
    C, F, S = op.corpus, op.filterkit, op.stance
    facts = {}
    with t.stage("expand_query"):
        query = t.call("filterkit.load_query", F.load_builtin_query, "socialdistancing")
        stream = C.ingest(inp / "corpus.jsonl")
        msgs = list(t.iterate("corpus.ingest", stream))
        report = t.call("filterkit.expand_query", F.expand_query, query, msgs,
                        rounds=1, top_k=20, min_count=5)
        _dump_json({"query": report.query_name,
                    "rounds": [[asdict(s) for s in rnd.candidates] for rnd in report.rounds]},
                   out / "expansion.json")
        del msgs
        facts.update(rejected=stream.stats.rejected,
                     candidates=[s.token for s in report.rounds[0].candidates])

    with t.stage("annotate_sample"):
        query = t.call("filterkit.load_query", F.load_builtin_query, "socialdistancing")
        stream = C.ingest(inp / "corpus.jsonl")
        selected = t.call("stance.annotation_set", S.prepare_annotation_set,
                          t.iterate("corpus.ingest", stream), query,
                          rate=None, n=annotate_n(inputs), seed=42)
        with open(out / "to_label.tsv", "w", encoding="utf-8") as handle:
            t.call("stance.write_template", op.stance_data.write_annotation_template,
                   selected, handle)
        facts["selected"] = len(selected)

    with t.stage("grid_search"):
        examples = t.call("stance.read_labels", S.read_labeled_tsv, inp / "labels.tsv")
        grid = S.grid_hyperparams(GRID_DIMS, GRID_EPOCHS, GRID_LRS, seed=42)
        result = t.call("stance.grid_search", S.grid_search, examples, grid,
                        objective="fraction_score", seed=42)
        _dump_json(result.to_dict(), out / "grid.json")
        facts.update(configs=len(grid), test_accuracy=result.test.accuracy)
    return facts


IN_PROCESS = {"trend": trend, "stance": stance, "curate": curate}
