"""End-to-end command-line behavior: flags, exit codes, file contracts."""

import csv
import io
import json
import logging

import pytest

from conftest import make_separable, msg, write_corpus, write_labels
from opinionpulse.cli import main
from opinionpulse.corpus import ingest
from opinionpulse.polarity import load_lexicon, score_stream, toy_lexicon_path
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

    def test_value_error_maps_to_two(self, tmp_path, capsys):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        first.write_text("supports\tx\nrejects\ty\n", encoding="utf-8")
        second.write_text("supports\tx\n", encoding="utf-8")
        assert main(["kappa", "--a", str(first), "--b", str(second)]) == 2
        assert "differ in length" in capsys.readouterr().err


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
        pairs = ((m, s) for m, s in score_stream(lexicon, ingest(corpus)))
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


class TestAnnotateAndKappa:
    def test_annotation_template(self, corpus, tmp_path):
        out = tmp_path / "todo.tsv"
        argv = ["annotate-sample", "--builtin", "pandemic", "--in", str(corpus),
                "--rate", "1.0", "--out", str(out)]
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(line.startswith("\t") for line in lines)

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
        assert header["format_version"] == 1
        assert header["hyperparams"]["dim"] == 16

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
        argv = ["expand-query", "--query", str(query), "--in", str(path),
                "--rounds", "2", "--top-k", "5"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["query"] == "afstand"
        assert len(report["rounds"]) == 2
        assert report["rounds"][0][0]["token"] == "meter"
        assert report["rounds"][0] == report["rounds"][1]

    def test_rounds_validation(self, corpus, tmp_path):
        query = tmp_path / "q.json"
        query.write_text('{"name": "x", "keywords": ["corona"]}', encoding="utf-8")
        argv = ["expand-query", "--query", str(query), "--in", str(corpus), "--rounds", "0"]
        assert main(argv) == 1


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
        import opinionpulse.cli as cli

        def boom(a, b):
            raise RuntimeError("boem")

        monkeypatch.setattr(cli, "kappa", boom)
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
