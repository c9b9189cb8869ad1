"""Acceptance suite: ten criteria, one pass/fail line each.

Each criterion prints its verdict and also lands in the terminal summary
(see conftest). Oracles are recomputed independently here, with exact
rational arithmetic where the tolerance demands it.
"""

import functools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from datetime import date, timedelta, timezone

import conftest
from conftest import make_separable, msg, sgd_gradient_error, write_corpus, write_labels
from opinionpulse.cli import main as cli_main
from opinionpulse.corpus import ingest
from opinionpulse.filterkit import (
    TopicQuery,
    expand_query,
    iter_partition,
    load_builtin_query,
    regex_match,
    tscore_rank,
)
from opinionpulse.stance import (
    Hyperparams,
    cross_validate,
    kappa,
    learning_curve,
    report_from_labels,
)
from opinionpulse.stance.data import LABELS
from opinionpulse.stance.model import _sgd_step
from opinionpulse.timeseries import SeriesPoint, correlate, frequency_series, stance_series


def criterion(number, description):
    """Record and print one acceptance verdict around a test body."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append((number, description, False))
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            conftest.ACCEPTANCE_RESULTS.append((number, description, True))
            print(f"criterion {number:2d} PASS  {description}")
        return wrapper
    return decorate


# --------------------------------------------------------------------------
# shared million-line corpus (criteria 8 and 9)

KEYWORDS = ("corona", "covid", "huisarts", "mondkapje", "rivm",
            "flattenthecurve", "blijfthuis", "houvol")

FILLER = ("vandaag", "gewoon", "weer", "lekker", "buiten", "morgen", "samen",
          "thuis", "straat", "koffie", "fietsen", "regen", "zonnig", "druk",
          "rustig", "nieuws", "stad", "trein", "werk", "school")


def _synthetic_texts(count, hit_rate, seed):
    """~100-char texts; roughly ``hit_rate`` of them contain a keyword."""
    rng = random.Random(seed)
    texts = []
    for i in range(count):
        words = [FILLER[rng.randrange(len(FILLER))] for _ in range(14)]
        if rng.random() < hit_rate:
            words[rng.randrange(len(words))] = KEYWORDS[rng.randrange(len(KEYWORDS))]
        text = " ".join(words)[:100]
        texts.append(text)
    return texts


@pytest.fixture(scope="session")
def million_line_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("bigdata") / "big.jsonl"
    texts = _synthetic_texts(1000, hit_rate=0.12, seed=99)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(1_000_000):
            day = 1 + (i // 40_000) % 28
            ts = f"2020-03-{day:02d}T{(i // 1667) % 24:02d}:{(i // 28) % 60:02d}:{i % 60:02d}Z"
            handle.write(
                f'{{"id": "m{i}", "created_at": "{ts}", "text": "{texts[i % 1000]}",'
                f' "lang": "nl", "platform": "twitter"}}\n'
            )
    return path


# --------------------------------------------------------------------------


@criterion(1, "fraction score equals exact arithmetic; majority baseline 0.56/0.00")
def test_criterion_01_fraction_score_oracle():
    started = time.perf_counter()

    def exact_fraction(gold, pred):
        def ratio(labels):
            supports, rejects = labels.count("supports"), labels.count("rejects")
            if supports > 0:
                return Fraction(rejects, supports)
            return math.inf if rejects > 0 else None

        r_gold, r_pred = ratio(gold), ratio(pred)
        if r_gold is None or r_pred is None:
            return None
        if r_gold == math.inf:
            return 1.0 if r_pred == math.inf else 0.0
        if r_gold == 0:
            return 1.0 if r_pred == 0 else math.inf
        if r_pred == math.inf:
            return math.inf
        return r_pred / r_gold

    rng = random.Random(31)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 60)
        gold = rng.choices(LABELS, k=n)
        pred = rng.choices(LABELS, k=n)
        expected = exact_fraction(gold, pred)
        actual = report_from_labels(gold, pred).fraction_score
        if expected is None:
            assert actual is None
        elif isinstance(expected, float):
            assert actual == expected
        else:
            assert abs(actual - float(expected)) <= 1e-12
        checked += 1

    gold = ["supports"] * 56 + ["rejects"] * 24 + ["other"] * 20
    report = report_from_labels(gold, ["supports"] * 100)
    assert report.accuracy == 0.56
    assert report.fraction_score == 0.0

    assert time.perf_counter() - started < 1.0


@criterion(2, "10-fold CV mean accuracy >= 0.95 on separable data; perfect fold scores 1.0")
def test_criterion_02_classifier_sanity():
    started = time.perf_counter()
    examples = make_separable(400, seed=7)
    hp = Hyperparams(dim=16, epochs=25, lr=0.3, bucket=2000, seed=42)
    result = cross_validate(examples, hp, folds=10, seed=42)
    assert result.mean_accuracy >= 0.95
    perfect = [rep for rep in result.fold_reports if rep.accuracy == 1.0]
    assert perfect, "no perfect-prediction fold to check"
    assert all(rep.fraction_score == 1.0 for rep in perfect)
    assert time.perf_counter() - started < 30.0


@criterion(3, "analytic gradients match central differences within 1e-4 relative error")
def test_criterion_03_gradient_check():
    # the SGD step that train runs, in float64: its update at lr = 1 is the gradient
    rng = np.random.default_rng(3)
    dim, k = 4, len(LABELS)
    E = rng.normal(size=(6, dim))
    W = rng.normal(size=(k, dim))
    b = rng.normal(size=k)
    urows = np.array([0, 2, 5])
    weights = np.array([0.25, 0.5, 0.25])
    y = 2
    assert sgd_gradient_error(_sgd_step, E, W, b, urows, weights, y) <= 1e-4


@criterion(4, "mean accuracy over 5 repeats non-decreasing across sizes 50/200/800 (0.02 slack)")
def test_criterion_04_learning_curve():
    examples = make_separable(1000, seed=11, noise=0.10)
    hp = Hyperparams(dim=16, epochs=20, lr=0.3, bucket=2000, seed=42)
    points = learning_curve(
        examples, hp, train_sizes=(50, 200, 800), repeats=5, seed=42, test_size=200,
    )
    accuracies = [p.mean_accuracy for p in points]
    for smaller, larger in zip(accuracies, accuracies[1:]):
        assert larger >= smaller - 0.02, f"curve decreased: {accuracies}"


@criterion(5, "distance-rule regex test vectors pass 20/20")
def test_criterion_05_regex_fidelity():
    query = load_builtin_query("socialdistancing")
    cases = []
    vectors = Path(__file__).parent / "data" / "distance_query_cases.tsv"
    with open(vectors, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            expected, text = line.split("\t", 1)
            cases.append((expected == "1", text))
    assert len(cases) == 20
    hits = sum(regex_match(query, text) == expected for expected, text in cases)
    assert hits == 20


@criterion(6, "t-score ranking matches brute force on 100 corpora; planted term ranks first")
def test_criterion_06_tscore_oracle():
    def exact_t(cm, cu, nm, nu):
        p1, p2 = Fraction(cm, nm), Fraction(cu, nu)
        return float(p1 - p2) / math.sqrt(Fraction(p1, nm) + Fraction(p2, nu))

    rng = random.Random(41)
    pool = [f"woord{i}" for i in range(25)]
    for _ in range(100):
        matched = Counter({w: rng.randint(1, 30) for w in rng.sample(pool, rng.randint(2, 15))})
        unmatched = Counter({w: rng.randint(1, 30) for w in rng.sample(pool, rng.randint(2, 15))})
        nm, nu = sum(matched.values()), sum(unmatched.values())
        rows = tscore_rank(matched, unmatched, min_count=1, top_k=len(matched))
        expected_order = sorted(
            ((-exact_t(c, unmatched.get(tok, 0), nm, nu), -c, tok) for tok, c in matched.items()),
        )
        assert [r.token for r in rows] == [tok for _, _, tok in expected_order]
        for row in rows:
            reference = exact_t(row.count_matched, row.count_unmatched, nm, nu)
            assert abs(row.t - reference) <= 1e-12 * max(1.0, abs(reference))

    matched_texts = [f"afstand met meter erbij nummer{i % 7}" for i in range(40)]
    unmatched_texts = [f"gewoon met bericht erbij nummer{i % 7}" for i in range(360)]
    unmatched_texts[0] = "een losse meter hier"
    msgs = [msg(text, id=f"m{i}") for i, text in enumerate(matched_texts + unmatched_texts)]
    query = TopicQuery(name="afstand", keywords=frozenset({"afstand"}))
    report = expand_query(query, msgs, rounds=1, top_k=5, min_count=5)
    assert report.rounds[0].candidates[0].token == "meter"


@criterion(7, "kappa exactly matches contingency arithmetic on 500 length-8 cases + hand cases")
def test_criterion_07_kappa_oracle():
    def exact_kappa(a, b):
        n = len(a)
        p_o = Fraction(sum(x == y for x, y in zip(a, b)), n)
        ca, cb = Counter(a), Counter(b)
        p_e = Fraction(sum(ca[x] * cb.get(x, 0) for x in ca), n * n)
        if p_e >= 1:
            return 1.0, p_o, p_e
        return (p_o - p_e) / (1 - p_e), p_o, p_e

    rng = random.Random(43)
    for _ in range(500):
        a = rng.choices(LABELS, k=8)
        b = rng.choices(LABELS, k=8)
        expected, p_o, p_e = exact_kappa(a, b)
        report = kappa(a, b)
        assert report.kappa == float(expected)
        assert report.observed_agreement == float(p_o)
        assert report.expected_agreement == float(p_e)

    assert kappa(["supports", "rejects"], ["supports", "rejects"]).kappa == 1.0
    assert kappa(["supports", "rejects"], ["rejects", "supports"]).kappa == -1.0
    half = kappa(
        ["supports", "supports", "rejects", "rejects"],
        ["supports", "supports", "rejects", "supports"],
    )
    assert half.kappa == 0.5


@criterion(8, "Pearson ±1.0 exact; stance rates sum to 1; Σn conserved over 1M messages")
def test_criterion_08_metric_suite(million_line_corpus):
    first = date(2020, 3, 1)
    series = [
        SeriesPoint(bucket=first + timedelta(days=i), value=float(v), n=1)
        for i, v in enumerate(range(1, 9))
    ]
    r, n = correlate(series, series)
    assert r == 1.0 and n == 8
    negated = [SeriesPoint(bucket=p.bucket, value=-p.value, n=p.n) for p in series]
    assert correlate(series, negated)[0] == -1.0

    rng = random.Random(47)
    labeled = [
        (msg("x", id=f"m{i}", ts=f"2020-03-{1 + i % 28:02d}T10:00:00Z").timestamp,
         rng.choice(LABELS))
        for i in range(300)
    ]
    for point in stance_series(labeled, bucket="day", tz=timezone.utc):
        assert sum(point.counts) == point.n
        # the rates as write_stance_csv computes them
        assert abs(sum(count / point.n for count in point.counts) - 1.0) <= 1e-9

    points = frequency_series(ingest(million_line_corpus), bucket="day", tz=timezone.utc)
    assert sum(p.n for p in points) == 1_000_000


@criterion(9, "keyword filter >= 100k msgs/s; 1M-line filter < 60 s with flat memory")
def test_criterion_09_performance(million_line_corpus, tmp_path):
    query = load_builtin_query("table2")
    assert len(query.keywords) == 8

    probe_msgs = [msg(text, id=f"p{i}") for i, text in
                  enumerate(_synthetic_texts(200_000, hit_rate=0.12, seed=7))]
    started = time.perf_counter()
    matched = sum(1 for m in probe_msgs if query.matches(m.text))
    elapsed = time.perf_counter() - started
    rate = len(probe_msgs) / elapsed
    assert matched > 0
    assert rate >= 100_000, f"throughput {rate:,.0f} msgs/s"

    started = time.perf_counter()
    hits = sum(1 for _, hit in iter_partition(ingest(million_line_corpus), query) if hit)
    full_elapsed = time.perf_counter() - started
    assert hits > 0
    assert full_elapsed < 60.0, f"full filter took {full_elapsed:.1f} s"

    # flat memory: a 10x larger stream may not grow the traced peak 10x
    def subset(count):
        path = tmp_path / f"subset_{count}.jsonl"
        with open(million_line_corpus, encoding="utf-8") as src, \
                open(path, "w", encoding="utf-8") as dst:
            dst.writelines(islice(src, count))
        return path

    def traced_peak(path):
        tracemalloc.start()
        for _ in iter_partition(ingest(path), query):
            pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    small_peak = traced_peak(subset(20_000))
    large_peak = traced_peak(subset(200_000))
    assert large_peak < 2 * small_peak + 256_000, (small_peak, large_peak)


@criterion(10, "every pipeline rerun with --seed 42 is byte-identical, models included")
def test_criterion_10_determinism(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus_path, [
        msg("de corona cijfers vallen mee vandaag", id="a", ts="2020-03-11T10:00:00Z"),
        msg("mooi weer vandaag, goed humeur", id="b", ts="2020-03-11T14:30:00Z"),
        msg("corona houdt iedereen bezig, slecht nieuws", id="c", ts="2020-03-12T09:10:00Z"),
        msg("lekker gefietst door de stad", id="d", ts="2020-03-12T14:30:00Z"),
        msg("het blijft mooi weer", id="e", ts="2020-03-13T08:00:00Z"),
    ] + [msg(f"corona bericht nummer {i}", id=f"x{i}", ts=f"2020-03-{14 + i % 3:02d}T12:00:00Z")
         for i in range(20)])

    labels_path = tmp_path / "labels.tsv"
    write_labels(labels_path, make_separable(60, seed=13))

    annot_a = tmp_path / "annot_a.tsv"
    annot_b = tmp_path / "annot_b.tsv"
    annot_a.write_text("supports\tx\nsupports\tx\nrejects\tx\nrejects\tx\n", encoding="utf-8")
    annot_b.write_text("supports\tx\nsupports\tx\nrejects\tx\nsupports\tx\n", encoding="utf-8")

    events_path = tmp_path / "events.json"
    events_path.write_text('[{"date": "2020-03-12", "label": "persco"}]', encoding="utf-8")

    external_path = tmp_path / "external.csv"
    external_path.write_text(
        "".join(f"2020-03-{d:02d},{v}\n" for d, v in zip(range(11, 17), (3, 1, 4, 1, 5, 9))),
        encoding="utf-8",
    )

    query_path = tmp_path / "query.json"
    query_path.write_text('{"name": "pandemic-ext", "keywords": ["corona", "covid"]}',
                          encoding="utf-8")

    fast = ["--dim", "16", "--epochs", "25", "--lr", "0.3", "--bucket", "2000"]

    def pipelines(run_dir):
        scored = run_dir / "scored.csv"
        model = run_dir / "model.bin"
        labeled = run_dir / "labeled.jsonl"
        return [
            ["filter", "--builtin", "pandemic", "--in", str(corpus_path),
             "--out", str(run_dir / "matched.jsonl"),
             "--unmatched-out", str(run_dir / "rest.jsonl"),
             "--stats", str(run_dir / "stats.json"), "--seed", "42"],
            ["expand-query", "--query", str(query_path), "--in", str(corpus_path),
             "--min-count", "1", "--out", str(run_dir / "expansion.json"), "--seed", "42"],
            ["sentiment", "--toy-lexicon", "--in", str(corpus_path),
             "--out", str(scored), "--summary", str(run_dir / "summary.json"), "--seed", "42"],
            ["timeseries", "--kind", "frequency", "--in", str(corpus_path),
             "--out", str(run_dir / "freq.csv"), "--ma", "3",
             "--events", str(events_path), "--events-out", str(run_dir / "markers.json"),
             "--seed", "42"],
            ["timeseries", "--kind", "sentiment", "--in", str(scored),
             "--bucket", "hour", "--out", str(run_dir / "hourly.csv"), "--seed", "42"],
            ["annotate-sample", "--builtin", "pandemic", "--in", str(corpus_path),
             "--n", "8", "--out", str(run_dir / "template.tsv"), "--seed", "42"],
            ["kappa", "--a", str(annot_a), "--b", str(annot_b), "--seed", "42"],
            ["train", "--labels", str(labels_path), "--out", str(model), "--seed", "42"] + fast,
            ["grid-search", "--labels", str(labels_path), "--dims", "16", "--epochs", "25",
             "--lrs", "0.3", "--bucket", "2000", "--out", str(run_dir / "grid.json"),
             "--seed", "42"],
            ["learning-curve", "--labels", str(labels_path), "--sizes", "20,40",
             "--test-size", "20", "--repeats", "2", "--out", str(run_dir / "curve.csv"),
             "--seed", "42"] + fast,
            ["predict", "--model", str(model), "--text", "steun eens prima", "--seed", "42"],
            ["predict", "--model", str(model), "--in", str(corpus_path),
             "--out", str(labeled), "--seed", "42"],
            ["stance-series", "--in", str(labeled), "--bucket", "week",
             "--out", str(run_dir / "stance.csv"), "--seed", "42"],
            ["correlate", "--a", str(run_dir / "freq.csv"), "--b", str(external_path),
             "--out", str(run_dir / "corr.json"), "--seed", "42"],
        ]

    captured = {}
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        stdout_chunks = []
        for argv in pipelines(run_dir):
            assert cli_main(argv) == 0, f"{argv[0]} failed on run {run}"
            stdout_chunks.append(capsys.readouterr().out)
        captured[run] = stdout_chunks

    assert captured["one"] == captured["two"]

    first_files = sorted(p.name for p in (tmp_path / "one").iterdir())
    second_files = sorted(p.name for p in (tmp_path / "two").iterdir())
    assert first_files == second_files
    assert first_files  # the runs actually wrote outputs
    for name in first_files:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name
