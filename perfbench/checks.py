"""Reference computations and output checks for every CLI stage.

The references are written from the documented rules and from the
generator's ground truth, never by calling the program under test. Each
check returns a list of problems; an empty list means the stage output is
correct. numpy is used only for the correlation reference (``corrcoef``).
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from gen import COLLOCATE, LABELS, PUNCT, Inputs

TABLE2 = ("corona", "covid", "huisarts", "mondkapje", "rivm", "flattenthecurve",
          "blijfthuis", "houvol")
SOCIAL_DISTANCING = re.compile(r"1[.,]5[ -]*m|afstand.*hou|hou.*afstand|anderhalve[ -]*meter")
BUCKET_TZ = timezone(timedelta(hours=1))  # the CLI's documented default offset
SCORE_TOL = 1e-12
R_TOL = 1e-9
ACCURACY_FLOOR = 0.6
TOP_K = 20


# ---------------------------------------------------------------------------
# references


def ref_score(text: str, words: dict, emoji: dict) -> tuple[float, int]:
    """Mean over word-token hits and emoji occurrences, 0.0 without hits."""
    total, hits = 0.0, 0
    for raw in text.split():
        value = words.get(raw.strip(PUNCT).lower())
        if value is not None:
            total += value
            hits += 1
    for ch in text:
        value = emoji.get(ch)
        if value is not None:
            total += value
            hits += 1
    return (total / hits if hits else 0.0), hits


def trend_matched(inputs: Inputs) -> list:
    """filter --lang nl --drop-reposts --dedup by_id --builtin table2, by hand."""
    seen, matched = set(), []
    for rec in inputs.corpus.valid:
        if rec.lang not in ("nl", "und") or rec.repost:
            continue
        key = (rec.platform, rec.id)
        if key in seen:
            continue
        seen.add(key)
        folded = rec.text.casefold()
        if any(k in folded for k in TABLE2):
            matched.append(rec)
    return matched


def local_day(ts: datetime) -> date:
    return ts.astimezone(BUCKET_TZ).date()


def local_hour(ts: datetime) -> datetime:
    return ts.astimezone(BUCKET_TZ).replace(minute=0, second=0, microsecond=0)


def bucket_means(pairs) -> dict:
    sums, counts = {}, Counter()
    for key, value in pairs:
        sums[key] = sums.get(key, 0.0) + value
        counts[key] += 1
    return {key: (sums[key] / counts[key], counts[key]) for key in sorted(sums)}


def trailing_mean(values: list, window: int) -> list:
    return [math.fsum(values[max(0, i - window + 1): i + 1]) / (i + 1 - max(0, i - window + 1))
            for i in range(len(values))]


class TrendReference:
    def __init__(self, inputs: Inputs):
        self.matched = trend_matched(inputs)
        self.scores = {r.id: ref_score(r.text, inputs.lexicon_words, inputs.lexicon_emoji)
                       for r in self.matched}
        self.per_day = Counter(local_day(r.ts) for r in self.matched)
        self.hourly = bucket_means((local_hour(r.ts), self.scores[r.id][0]) for r in self.matched)
        daily = bucket_means((local_day(r.ts), self.scores[r.id][0]) for r in self.matched)
        ma = trailing_mean([mean for mean, _ in daily.values()], 7)
        self.daily_ma7 = {day: (value, n) for (day, (_, n)), value in zip(daily.items(), ma)}
        overlap = [day for day in self.daily_ma7 if day in inputs.indicator]
        self.n_overlap = len(overlap)
        self.r = float(np.corrcoef([self.daily_ma7[d][0] for d in overlap],
                                   [inputs.indicator[d] for d in overlap])[0, 1])
        first, last = min(self.per_day), max(self.per_day)
        self.events_in = sorted(label for day, label in inputs.events if first <= day <= last)
        self.events_out = sorted(label for day, label in inputs.events
                                 if not first <= day <= last)


# ---------------------------------------------------------------------------
# readers for the program's outputs (bench-side, independent of the library)


def read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        return [row for row in csv.reader(handle) if row]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# per-stage checks; each returns a list of problems


def check_filter(inputs: Inputs, ref: TrendReference, out: Path) -> list:
    problems = []
    ids = [rec["id"] for rec in read_jsonl(out / "matched.jsonl")]
    want = [r.id for r in ref.matched]
    if ids != want:
        problems.append(f"filter matched {len(ids)} messages, reference {len(want)}")
    if any(not r.keyword for r in ref.matched):
        problems.append("generator ground truth disagrees with the keyword reference")
    stats = json.loads((out / "ingest_stats.json").read_text(encoding="utf-8"))
    if stats.get("rejected") != inputs.corpus.planted_malformed:
        problems.append(f"filter rejected {stats.get('rejected')} lines, "
                        f"planted {inputs.corpus.planted_malformed}")
    return problems


def check_sentiment(inputs: Inputs, ref: TrendReference, out: Path) -> list:
    rows = read_csv(out / "scored.csv")
    if rows[:1] != [["id", "timestamp", "value", "hits"]]:
        return ["scored CSV header is wrong"]
    rows = rows[1:]
    if [row[0] for row in rows] != [r.id for r in ref.matched]:
        return [f"scored {len(rows)} messages, reference {len(ref.matched)}"]
    bad = sum(1 for row in rows
              if not _close(float(row[2]), ref.scores[row[0]][0], SCORE_TOL)
              or int(row[3]) != ref.scores[row[0]][1])
    return [f"{bad} per-message scores differ from the reference scorer"] if bad else []


def check_frequency(inputs: Inputs, ref: TrendReference, out: Path) -> list:
    problems = []
    rows = read_csv(out / "volume_daily.csv")[1:]
    counts = {date.fromisoformat(b): int(n) for b, n in rows}
    if sum(counts.values()) != len(ref.matched):
        problems.append(f"frequency series sums to {sum(counts.values())}, "
                        f"matched {len(ref.matched)}")
    if {d: n for d, n in counts.items() if n} != dict(ref.per_day):
        problems.append("daily counts differ from the reference")
    markers = json.loads((out / "markers.json").read_text(encoding="utf-8"))
    placed = sorted(label for labels in markers["markers"].values() for label in labels)
    outside = sorted(e["label"] for e in markers["out_of_range"])
    if placed != ref.events_in or outside != ref.events_out:
        problems.append("event markers differ from the reference")
    return problems


def _check_means(path: Path, want: dict, parse) -> list:
    rows = read_csv(path)
    if rows[:1] != [["bucket", "mean", "n"]]:
        return [f"{path.name}: header is wrong"]
    got = {parse(b): (float(m), int(n)) for b, m, n in rows[1:]}
    if got.keys() != want.keys():
        return [f"{path.name}: {len(got)} buckets, reference {len(want)}"]
    bad = sum(1 for k, (m, n) in got.items()
              if n != want[k][1] or not _close(m, want[k][0], SCORE_TOL))
    return [f"{path.name}: {bad} bucket means differ from the reference"] if bad else []


def check_hourly(inputs: Inputs, ref: TrendReference, out: Path) -> list:
    return _check_means(out / "sentiment_hourly.csv", ref.hourly, datetime.fromisoformat)


def check_daily_ma7(inputs: Inputs, ref: TrendReference, out: Path) -> list:
    return _check_means(out / "sentiment_daily_ma7.csv", ref.daily_ma7, date.fromisoformat)


def check_correlate(inputs: Inputs, ref: TrendReference, out: Path) -> list:
    result = json.loads((out / "correlation.json").read_text(encoding="utf-8"))
    problems = []
    if result.get("n_overlap") != ref.n_overlap:
        problems.append(f"correlate overlap {result.get('n_overlap')}, reference {ref.n_overlap}")
    if not _close(float(result.get("r", math.nan)), ref.r, R_TOL):
        problems.append(f"correlate r={result.get('r')}, numpy.corrcoef {ref.r}")
    return problems


def check_train(inputs: Inputs, ref, out: Path) -> list:
    model = out / "stance_model.bin"
    return [] if model.is_file() and model.stat().st_size > 0 else ["no model file written"]


def check_predict(inputs: Inputs, ref, out: Path) -> list:
    records = read_jsonl(out / "labeled.jsonl")
    truth = inputs.corpus.valid
    if [r["id"] for r in records] != [t.id for t in truth]:
        return [f"predict wrote {len(records)} lines for {len(truth)} accepted messages"]
    problems = []
    bad_probs = 0
    for rec in records:
        probs = rec["probs"]
        if set(probs) != set(LABELS) or not _close(math.fsum(probs.values()), 1.0, 1e-9) \
                or rec["stance"] != max(LABELS, key=lambda label: probs[label]):
            bad_probs += 1
    if bad_probs:
        problems.append(f"{bad_probs} predictions have probabilities that are not a "
                        "distribution over the labels or a label that is not the argmax")
    accuracy = sum(r["stance"] == t.stance for r, t in zip(records, truth)) / len(truth)
    if accuracy < ACCURACY_FLOOR:
        problems.append(f"held-out accuracy {accuracy:.3f} below {ACCURACY_FLOOR}")
    return problems


def check_stance_series(inputs: Inputs, ref, out: Path) -> list:
    labeled = read_jsonl(out / "labeled.jsonl")
    by_id = {t.id: t for t in inputs.corpus.valid}
    tallies: dict = {}
    for rec in labeled:
        day = local_day(by_id[rec["id"]].ts)
        week = day - timedelta(days=day.weekday())
        tallies.setdefault(week, Counter())[rec["stance"]] += 1
    rows = read_csv(out / "stance_weekly.csv")
    if rows[:1] != [["bucket", "support", "reject", "other", "n"]]:
        return ["stance CSV header is wrong"]
    problems = []
    got = {date.fromisoformat(row[0]): row for row in rows[1:]}
    if got.keys() != tallies.keys():
        return [f"stance series has {len(got)} weeks, reference {len(tallies)}"]
    if sum(int(row[4]) for row in got.values()) != len(labeled):
        problems.append("stance series counts do not sum to the predicted messages")
    for week, row in got.items():
        rates = [float(v) for v in row[1:4]]
        n = int(row[4])
        want = [tallies[week][label] / n for label in LABELS]
        if not _close(math.fsum(rates), 1.0, SCORE_TOL) or n != sum(tallies[week].values()) \
                or any(not _close(a, b, SCORE_TOL) for a, b in zip(rates, want)):
            problems.append(f"stance rates for week {week} differ from the reference")
            break
    return problems


def check_expand_query(inputs: Inputs, ref, out: Path) -> list:
    report = json.loads((out / "expansion.json").read_text(encoding="utf-8"))
    tokens = [c["token"] for c in report["rounds"][0]]
    if len(tokens) > TOP_K:
        return [f"expand-query returned {len(tokens)} candidates, top-k is {TOP_K}"]
    return [] if COLLOCATE in tokens else [f"planted collocate {COLLOCATE!r} not in the top-k"]


def annotate_n(inputs: Inputs) -> int:
    """2000, or less when a small scale plants fewer distinct on-topic texts."""
    distinct = len({r.text for r in inputs.corpus.valid if r.sd})
    return min(2000, int(0.8 * distinct))


def check_annotate_sample(inputs: Inputs, ref, out: Path) -> list:
    with open(out / "to_label.tsv", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    texts = [line[1:] for line in lines if line.startswith("\t")]
    planted = {r.text for r in inputs.corpus.valid if r.sd}
    problems = []
    n = annotate_n(inputs)
    if len(texts) != len(lines) or len(texts) != n:
        problems.append(f"annotate-sample wrote {len(lines)} rows, asked for {n}")
    if len(set(texts)) != len(texts):
        problems.append("annotate-sample returned duplicate texts")
    if any(not SOCIAL_DISTANCING.search(t.casefold()) or t not in planted for t in texts):
        problems.append("annotate-sample returned a text that does not match the query")
    return problems


def check_grid_search(inputs: Inputs, ref, out: Path) -> list:
    report = json.loads((out / "grid.json").read_text(encoding="utf-8"))
    problems = []
    dims = sorted(row["hyperparams"]["dim"] for row in report["table"])
    if dims != [10, 50]:
        problems.append(f"grid table covers dims {dims}, expected [10, 50]")
    if report["best"] not in [row["hyperparams"] for row in report["table"]]:
        problems.append("grid winner is not a row of the table")
    accuracy = report["test"]["accuracy"]
    if accuracy < ACCURACY_FLOOR:
        problems.append(f"grid-search test accuracy {accuracy:.3f} below {ACCURACY_FLOOR}")
    return problems
