"""Temporal aggregation: frequency, sentiment and stance-rate series.

Timestamps are stored UTC and bucketed after applying a fixed offset
(default +01:00). Frequency series fill interior gaps with zero counts,
over at most ``MAX_FILLED_SPAN`` between the first and last bucket;
mean-value series omit empty buckets because a mean of nothing is not
meaningful. All series are sorted by bucket.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .constants import DEFAULT_TZ_OFFSET, FREQUENCY_BUCKETS, LABELS, STANCE_BUCKETS
from .exceptions import InputError, from_isoformat, input_json, input_lines

logger = logging.getLogger(__name__)

# the widest span frequency_series fills, about 27 years (at most 240,000
# hourly points); a wider one comes from a stray timestamp, not from a study
MAX_FILLED_SPAN = timedelta(days=10_000)

_OFFSET_RE = re.compile(r"([+-])(\d{2})(?::?(\d{2}))?", re.ASCII)


def parse_tz_offset(text: str) -> timezone:
    """Parse "+01:00" style offsets (also accepts "Z" and "+01")."""
    text = text.strip()
    if text in ("Z", "z", "+00:00", "-00:00"):
        return timezone.utc
    match = _OFFSET_RE.fullmatch(text)
    if not match:
        raise InputError(f"bad timezone offset {text!r}, expected +HH:MM")
    sign = 1 if match.group(1) == "+" else -1
    hours, minutes = int(match.group(2)), int(match.group(3) or 0)
    if hours > 23 or minutes > 59:
        raise InputError(f"bad timezone offset {text!r}, expected +HH:MM")
    return timezone(sign * timedelta(hours=hours, minutes=minutes))


DEFAULT_TZ = parse_tz_offset(DEFAULT_TZ_OFFSET)


@dataclass(frozen=True)
class SeriesPoint:
    bucket: object  # date, or tz-aware datetime for hourly buckets
    value: float
    n: int


@dataclass(frozen=True)
class StanceRates:
    bucket: object
    support_rate: float
    reject_rate: float
    other_rate: float
    n: int


def bucket_key(ts: datetime, bucket: str, tz: timezone):
    try:
        local = ts.astimezone(tz)
    except OverflowError:
        raise InputError(f"timestamp {ts.isoformat()} leaves the years 1-9999 in {tz}") from None
    if bucket == "day":
        return local.date()
    if bucket == "hour":
        return datetime(local.year, local.month, local.day, local.hour, tzinfo=local.tzinfo,
                        fold=local.fold)
    if bucket == "week":
        return local.date() - timedelta(days=local.weekday())
    if bucket == "month":
        return local.date().replace(day=1)
    raise InputError(f"unknown bucket {bucket!r}")


_BUCKET_STEPS = {"day": timedelta(days=1), "hour": timedelta(hours=1), "week": timedelta(days=7)}


def _next_bucket(key, bucket: str):
    try:
        if bucket != "month":
            return key + _BUCKET_STEPS[bucket]
        # month: jump to the first of the following month
        return (key.replace(day=28) + timedelta(days=4)).replace(day=1)
    except OverflowError:
        raise InputError(f"the {bucket} of {format_bucket(key)} ends after year 9999") from None


def frequency_series(
    msgs: Iterable, bucket: str = "day", tz: timezone = DEFAULT_TZ
) -> list[SeriesPoint]:
    """Counts of Messages per bucket of their timestamp, interior gaps filled with n=0."""
    if bucket not in FREQUENCY_BUCKETS:
        raise InputError(f"frequency bucket must be one of {FREQUENCY_BUCKETS}")
    counts: dict = {}
    for msg in msgs:
        key = bucket_key(msg.timestamp, bucket, tz)
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return []
    key, last = min(counts), max(counts)
    end = _next_bucket(last, bucket)
    if _bucket_date(last) - _bucket_date(key) > MAX_FILLED_SPAN:
        raise InputError(f"timestamps from {format_bucket(key)} to {format_bucket(last)} span "
                         f"more than the {MAX_FILLED_SPAN.days} days a frequency series fills")
    points = []
    while key < end:
        n = counts.get(key, 0)
        points.append(SeriesPoint(bucket=key, value=float(n), n=n))
        key = _next_bucket(key, bucket)
    return points


def sentiment_series(
    scored: Iterable[tuple[datetime, float]], bucket: str = "day", tz: timezone = DEFAULT_TZ
) -> list[SeriesPoint]:
    """Mean value per non-empty bucket of (timestamp, value) pairs, as read_scored_csv gives."""
    if bucket not in FREQUENCY_BUCKETS:
        raise InputError(f"sentiment bucket must be one of {FREQUENCY_BUCKETS}")
    sums: dict = {}
    counts: dict = {}
    for ts, value in scored:
        key = bucket_key(ts, bucket, tz)
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1
    return [
        SeriesPoint(bucket=key, value=sums[key] / counts[key], n=counts[key])
        for key in sorted(sums)
    ]


def stance_series(
    labeled: Iterable[tuple[datetime, str]], bucket: str = "day", tz: timezone = DEFAULT_TZ
) -> list[StanceRates]:
    """Label proportions per bucket over (timestamp, label) pairs, as read_labeled_jsonl gives."""
    if bucket not in STANCE_BUCKETS:
        raise InputError(f"stance bucket must be one of {STANCE_BUCKETS}")
    tallies: dict = {}
    for ts, label in labeled:
        if label not in LABELS:
            raise InputError(f"unknown stance label {label!r}")
        key = bucket_key(ts, bucket, tz)
        tally = tallies.setdefault(key, dict.fromkeys(LABELS, 0))
        tally[label] += 1
    series = []
    for key in sorted(tallies):
        tally = tallies[key]
        n = sum(tally.values())
        series.append(
            StanceRates(
                bucket=key,
                support_rate=tally["supports"] / n,
                reject_rate=tally["rejects"] / n,
                other_rate=tally["other"] / n,
                n=n,
            )
        )
    return series


def moving_average(
    series: Sequence[SeriesPoint], window: int = 7, centered: bool = False
) -> list[SeriesPoint]:
    """Smooth values with a trailing (or centered) window mean.

    Trailing: point i averages the last `window` values ending at i, so the
    first window−1 points average what exists. Centered: the window
    straddles i and is cut short at both edges.
    """
    if window < 1:
        raise InputError("window must be at least 1")
    values = [p.value for p in series]
    out = []
    for i, point in enumerate(series):
        if centered:
            lo, hi = max(0, i - (window - 1) // 2), i + window // 2 + 1
        else:
            lo, hi = max(0, i - window + 1), i + 1
        chunk = values[lo:hi]
        out.append(SeriesPoint(bucket=point.bucket, value=math.fsum(chunk) / len(chunk), n=point.n))
    return out


def _unit_scaled(values: list) -> list:
    """``values`` times the power of two that brings the largest magnitude into [0.5, 1).

    Pearson r does not change under this scaling, which is exact for
    normal floats; afterwards no sum or square of deviations can overflow.
    """
    shift = -math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, shift) for v in values]


def correlate(a: Sequence[SeriesPoint], b: Sequence[SeriesPoint]) -> tuple[float, int]:
    """Pearson r over the bucket intersection of two series."""
    by_bucket = {p.bucket: p.value for p in b}
    pairs = [(p.value, by_bucket[p.bucket]) for p in a if p.bucket in by_bucket]
    n = len(pairs)
    if n < 2:
        raise InputError(f"degenerate series: only {n} overlapping buckets")
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise InputError("degenerate series: zero variance")
    xs, ys = _unit_scaled(xs), _unit_scaled(ys)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx <= 0 or syy <= 0:
        raise InputError("degenerate series: zero variance")
    return sxy / math.sqrt(sxx * syy), n


@dataclass(frozen=True)
class Event:
    date: date
    label: str


def load_events(path) -> list[Event]:
    """Read an events JSON file: a list of {date, label} objects."""
    name = Path(path).name
    raw = input_json(path, "events")
    if not isinstance(raw, list):
        raise InputError(f"{name}: expected a list of events")
    events = []
    for i, item in enumerate(raw):
        try:
            if not isinstance(item["label"], str):
                raise TypeError("a label is a string")
            events.append(Event(date=from_isoformat(date, item["date"]), label=item["label"]))
        except (TypeError, KeyError, ValueError):
            raise InputError(f"{name}: bad event at index {i}") from None
    return events


@dataclass(frozen=True)
class AnnotatedSeries:
    markers: dict  # bucket -> tuple of event labels
    out_of_range: tuple[Event, ...]

    def to_dict(self) -> dict:
        markers = {format_bucket(b): list(labels) for b, labels in sorted(self.markers.items())}
        out_of_range = [{"date": e.date.isoformat(), "label": e.label} for e in self.out_of_range]
        return {"markers": markers, "out_of_range": out_of_range}


def annotate_events(
    series: Sequence[SeriesPoint], events: Sequence[Event], bucket: str = "day"
) -> AnnotatedSeries:
    """Attach events to the bucket containing their date.

    The points of ``series`` come in bucket order. Events before the first
    bucket or past the end of the last one (for hour buckets, past its
    date) are returned under out_of_range rather than dropped.
    """
    points = tuple(series)
    markers: dict = {}
    out_of_range = []
    starts = [_bucket_date(p.bucket) for p in points]
    end = _next_bucket(starts[-1], "day" if bucket == "hour" else bucket) if points else None
    for event in events:
        if not points or event.date < starts[0] or event.date >= end:
            out_of_range.append(event)
            continue
        # latest bucket starting on or before the event date
        key = points[bisect_right(starts, event.date) - 1].bucket
        markers[key] = markers.get(key, ()) + (event.label,)
    return AnnotatedSeries(markers=markers, out_of_range=tuple(out_of_range))


def _bucket_date(bucket) -> date:
    if isinstance(bucket, datetime):
        return bucket.date()
    return bucket


def format_bucket(bucket) -> str:
    return bucket.isoformat()


def parse_bucket(text: str):
    """Inverse of format_bucket: a date, else a tz-aware hour datetime."""
    try:  # a datetime in the grammar of from_isoformat is longer than a date
        parsed = from_isoformat(date if len(text) == 10 else datetime, text)
    except ValueError:
        raise InputError(f"unparseable bucket {text!r}") from None
    if type(parsed) is datetime and parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed


def write_frequency_csv(points: Sequence[SeriesPoint], handle) -> None:
    handle.write("bucket,n\n")
    for p in points:
        handle.write(f"{format_bucket(p.bucket)},{p.n}\n")


def write_value_csv(points: Sequence[SeriesPoint], handle) -> None:
    # repr() keeps the float bit pattern, so replayed CSVs stay exact
    handle.write("bucket,mean,n\n")
    for p in points:
        handle.write(f"{format_bucket(p.bucket)},{p.value!r},{p.n}\n")


def write_stance_csv(series: Sequence[StanceRates], handle) -> None:
    handle.write("bucket,support,reject,other,n\n")
    for r in series:
        handle.write(
            f"{format_bucket(r.bucket)},{r.support_rate!r},{r.reject_rate!r},"
            f"{r.other_rate!r},{r.n}\n"
        )


# header -> index of the n column; every schema keeps its value in column 1
_SERIES_N_COLUMN = {
    ("bucket", "n"): 1,
    ("bucket", "mean", "n"): 2,
    ("bucket", "support", "reject", "other", "n"): 4,
}


def read_series_csv(path) -> list[SeriesPoint]:
    """Load a series from any shipped CSV schema, sorted by bucket.

    The header picks bucket,n, bucket,mean,n, bucket,support,reject,other,n
    (read as the support rate) or else date,value (header optional, n = 1).
    A malformed row raises InputError naming the file and line.
    """
    def number(convert, text: str):
        try:
            value = convert(text)
            if value in (math.inf, -math.inf) or value != value:  # isfinite overflows on a huge n
                raise ValueError
        except ValueError:
            raise ValueError(f"bad value {text!r}") from None
        return value

    columns = None
    points = {}
    with input_lines(path, "series") as lines:
        for row in csv.reader(lines):
            if not any(cell.strip() for cell in row):
                continue
            if columns is None:
                header = tuple(cell.strip().lower() for cell in row)
                n_col = _SERIES_N_COLUMN.get(header)
                columns = header if n_col is not None else ("date", "value")
                if n_col is not None or header[0] == "date":
                    continue
            if len(row) != len(columns):
                raise ValueError(f"expected {','.join(columns)}")
            text = row[0].strip()
            try:
                key = from_isoformat(date, text) if n_col is None else parse_bucket(text)
            except (InputError, ValueError):
                raise ValueError(f"unparseable {columns[0]} {row[0]!r}") from None
            if points and type(key) is not type(next(iter(points))):
                raise ValueError(f"bucket {row[0]!r} mixes days and hours")
            if key in points:
                raise ValueError(f"duplicate {columns[0]} {row[0]}")
            n = 1 if n_col is None else number(int, row[n_col])
            points[key] = SeriesPoint(bucket=key, value=number(float, row[1]), n=n)
    return [points[key] for key in sorted(points)]
