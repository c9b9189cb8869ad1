"""Temporal aggregation: frequency, sentiment and stance-rate series.

Timestamps are stored UTC and bucketed after applying a fixed offset
(default +01:00). Frequency series fill interior gaps with zero counts;
mean-value series omit empty buckets because a mean of nothing is not
meaningful. All series are sorted by bucket.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

from .exceptions import InputError
from .stance.data import LABELS

logger = logging.getLogger(__name__)

DEFAULT_TZ_OFFSET = "+01:00"
DEFAULT_TZ = timezone(timedelta(hours=1))

FREQUENCY_BUCKETS = ("day", "hour")
STANCE_BUCKETS = ("day", "week", "month")

_OFFSET_RE = re.compile(r"^([+-])(\d{2}):?(\d{2})?$")


def parse_tz_offset(text: str) -> timezone:
    """Parse "+01:00" style offsets (also accepts "Z" and "+01")."""
    text = text.strip()
    if text in ("Z", "z", "+00:00", "-00:00"):
        return timezone.utc
    match = _OFFSET_RE.match(text)
    if not match:
        raise InputError(f"bad timezone offset {text!r}, expected +HH:MM")
    sign = 1 if match.group(1) == "+" else -1
    hours, minutes = int(match.group(2)), int(match.group(3) or 0)
    if hours > 23 or minutes > 59:
        raise InputError(f"bad timezone offset {text!r}, expected +HH:MM")
    return timezone(sign * timedelta(hours=hours, minutes=minutes))


@dataclass(frozen=True)
class SeriesPoint:
    bucket: object  # date, or tz-aware datetime for hourly buckets
    value: float
    n: int
    partial: bool = False  # set by moving_average on short windows


@dataclass(frozen=True)
class StanceRates:
    bucket: object
    support_rate: float
    reject_rate: float
    other_rate: float
    n: int


def bucket_key(ts: datetime, bucket: str, tz: timezone):
    local = ts.astimezone(tz)
    if bucket == "day":
        return local.date()
    if bucket == "hour":
        return local.replace(minute=0, second=0, microsecond=0)
    if bucket == "week":
        return local.date() - timedelta(days=local.weekday())
    if bucket == "month":
        return local.date().replace(day=1)
    raise InputError(f"unknown bucket {bucket!r}")


def _next_bucket(key, bucket: str):
    if bucket == "day":
        return key + timedelta(days=1)
    if bucket == "hour":
        return key + timedelta(hours=1)
    if bucket == "week":
        return key + timedelta(days=7)
    # month: jump to the first of the following month
    return (key.replace(day=28) + timedelta(days=4)).replace(day=1)


def _timestamp_of(item) -> datetime:
    # Accepts a bare datetime (CSV-replayed pipelines) or a Message.
    # datetime.timestamp is a method, so the isinstance check comes first.
    if isinstance(item, datetime):
        return item
    ts = getattr(item, "timestamp", None)
    if not isinstance(ts, datetime):
        raise InputError(f"cannot extract a timestamp from {type(item).__name__}")
    return ts


def _value_of(score) -> float:
    return float(getattr(score, "value", score))


def frequency_series(
    msgs: Iterable, bucket: str = "day", tz: timezone = DEFAULT_TZ
) -> list[SeriesPoint]:
    """Message counts per bucket, interior gaps filled with n=0."""
    if bucket not in FREQUENCY_BUCKETS:
        raise InputError(f"frequency bucket must be one of {FREQUENCY_BUCKETS}")
    counts: dict = {}
    for msg in msgs:
        key = bucket_key(_timestamp_of(msg), bucket, tz)
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return []
    points = []
    key, last = min(counts), max(counts)
    while key <= last:
        n = counts.get(key, 0)
        points.append(SeriesPoint(bucket=key, value=float(n), n=n))
        key = _next_bucket(key, bucket)
    return points


def sentiment_series(
    scored: Iterable, bucket: str = "day", tz: timezone = DEFAULT_TZ
) -> list[SeriesPoint]:
    """Mean polarity per bucket over (Message, PolarityScore) pairs.

    Also accepts (datetime, float) pairs so a scored CSV replays to the
    identical series. Empty buckets are omitted.
    """
    if bucket not in FREQUENCY_BUCKETS:
        raise InputError(f"sentiment bucket must be one of {FREQUENCY_BUCKETS}")
    sums: dict = {}
    counts: dict = {}
    for item, score in scored:
        key = bucket_key(_timestamp_of(item), bucket, tz)
        sums[key] = sums.get(key, 0.0) + _value_of(score)
        counts[key] = counts.get(key, 0) + 1
    return [
        SeriesPoint(bucket=key, value=sums[key] / counts[key], n=counts[key])
        for key in sorted(sums)
    ]


def stance_series(
    labeled: Iterable, bucket: str = "day", tz: timezone = DEFAULT_TZ
) -> list[StanceRates]:
    """Per-bucket label proportions over (Message, label) pairs."""
    if bucket not in STANCE_BUCKETS:
        raise InputError(f"stance bucket must be one of {STANCE_BUCKETS}")
    tallies: dict = {}
    for item, label in labeled:
        if label not in LABELS:
            raise InputError(f"unknown stance label {label!r}")
        key = bucket_key(_timestamp_of(item), bucket, tz)
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

    Trailing: point i averages the last `window` values ending at i; the
    first window−1 points average what exists and are flagged partial.
    Centered: the window straddles i and both edges are partial.
    """
    if window < 1:
        raise InputError("window must be at least 1")
    values = [p.value for p in series]
    out = []
    for i, point in enumerate(series):
        if centered:
            lo = max(0, i - (window - 1) // 2)
            hi = min(len(values), i + window // 2 + 1)
            partial = hi - lo < window
        else:
            lo = max(0, i - window + 1)
            hi = i + 1
            partial = i < window - 1
        chunk = values[lo:hi]
        out.append(
            SeriesPoint(
                bucket=point.bucket,
                value=math.fsum(chunk) / len(chunk),
                n=point.n,
                partial=partial,
            )
        )
    return out


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
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in pairs)
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
    path = Path(path)
    if not path.is_file():
        raise InputError(f"events file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path.name}: malformed JSON: {exc}") from None
    if not isinstance(raw, list):
        raise InputError(f"{path.name}: expected a list of events")
    events = []
    for i, item in enumerate(raw):
        try:
            events.append(Event(date=date.fromisoformat(item["date"]), label=str(item["label"])))
        except (TypeError, KeyError, ValueError):
            raise InputError(f"{path.name}: bad event at index {i}") from None
    return events


@dataclass(frozen=True)
class AnnotatedSeries:
    points: tuple[SeriesPoint, ...]
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

    Events before the first bucket or past the end of the last one are
    returned under out_of_range rather than dropped.
    """
    points = tuple(series)
    markers: dict = {}
    out_of_range = []
    starts = [_bucket_date(p.bucket) for p in points]
    end = _next_bucket(starts[-1], bucket) if points else None
    for event in events:
        if not points or event.date < starts[0] or event.date >= end:
            out_of_range.append(event)
            continue
        # latest bucket starting on or before the event date
        idx = max(i for i, start in enumerate(starts) if start <= event.date)
        key = points[idx].bucket
        markers[key] = markers.get(key, ()) + (event.label,)
    return AnnotatedSeries(points=points, markers=markers, out_of_range=tuple(out_of_range))


def _bucket_date(bucket) -> date:
    if isinstance(bucket, datetime):
        return bucket.date()
    return bucket


def format_bucket(bucket) -> str:
    return bucket.isoformat()


def parse_bucket(text: str):
    """Inverse of format_bucket: a date, else a tz-aware hour datetime."""
    try:
        return date.fromisoformat(text)
    except ValueError:
        pass
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError:
        raise InputError(f"unparseable bucket {text!r}") from None
    if parsed.tzinfo is None:
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
    path = Path(path)
    if not path.is_file():
        raise InputError(f"series file not found: {path}")

    def error(what: str) -> InputError:
        return InputError(f"{path.name}: {what}, line {lineno}")

    def number(convert, text: str):
        try:
            return convert(text)
        except ValueError:
            raise error(f"bad value {text!r}") from None

    columns = None
    points = {}
    with open(path, encoding="utf-8", newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not any(cell.strip() for cell in row):
                continue
            if columns is None:
                header = tuple(cell.strip().lower() for cell in row)
                n_col = _SERIES_N_COLUMN.get(header)
                columns = header if n_col is not None else ("date", "value")
                if n_col is not None or header[0] == "date":
                    continue
            if len(row) != len(columns):
                raise error(f"expected {','.join(columns)}")
            text = row[0].strip()
            try:
                key = date.fromisoformat(text) if n_col is None else parse_bucket(text)
            except (InputError, ValueError):
                raise error(f"unparseable {columns[0]} {row[0]!r}") from None
            if points and type(key) is not type(next(iter(points))):
                raise error(f"bucket {row[0]!r} mixes days and hours")
            if key in points:
                raise error(f"duplicate {columns[0]} {row[0]}")
            n = 1 if n_col is None else number(int, row[n_col])
            points[key] = SeriesPoint(bucket=key, value=number(float, row[1]), n=n)
    return [points[key] for key in sorted(points)]
