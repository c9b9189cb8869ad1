"""Bucketing, series construction, smoothing and correlation."""

import io
import math
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import msg
from opinionpulse.constants import LABELS, STANCE_BUCKETS
from opinionpulse.exceptions import InputError
from opinionpulse.polarity import PolarityScore, read_scored_csv, write_scored_csv
from opinionpulse.timeseries import (
    DEFAULT_TZ,
    MAX_FILLED_SPAN,
    Event,
    SeriesPoint,
    annotate_events,
    bucket_key,
    correlate,
    format_bucket,
    frequency_series,
    load_events,
    moving_average,
    parse_bucket,
    parse_tz_offset,
    read_series_csv,
    sentiment_series,
    stance_series,
    write_frequency_csv,
    write_stance_csv,
    write_value_csv,
)

UTC = timezone.utc


def at(iso: str, *, id: str = "m") -> object:
    return msg("tekst", id=id, ts=iso)


def when(iso: str) -> datetime:
    return at(iso).timestamp


def stance_rows(series) -> list:
    """The rows, below the header, that write_stance_csv writes for ``series``."""
    handle = io.StringIO()
    write_stance_csv(series, handle)
    return [line.split(",") for line in handle.getvalue().splitlines()[1:]]


def day_points(values, start="2020-03-01"):
    first = date.fromisoformat(start)
    return [
        SeriesPoint(bucket=first + timedelta(days=i), value=float(v), n=1)
        for i, v in enumerate(values)
    ]


class TestParseTzOffset:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("+01:00", timedelta(hours=1)),
            ("-05:30", -timedelta(hours=5, minutes=30)),
            ("+0200", timedelta(hours=2)),
            ("+02", timedelta(hours=2)),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_tz_offset(text).utcoffset(None) == expected

    def test_zulu_and_zero(self):
        assert parse_tz_offset("Z") is UTC
        assert parse_tz_offset("+00:00") is UTC

    @pytest.mark.parametrize("text", ["01:00", "+1:00", "+25:00", "+01:75", "gisteren", "+01:",
                                      "+\u0660\u0661:\u0660\u0660"])
    def test_rejected_forms(self, text):
        with pytest.raises(InputError, match="bad timezone offset"):
            parse_tz_offset(text)

    def test_default_is_plus_one(self):
        assert DEFAULT_TZ.utcoffset(None) == timedelta(hours=1)


class TestBucketKey:
    def test_day_applies_offset(self):
        # 23:30 UTC is already the next day at +01:00
        ts = datetime(2020, 3, 11, 23, 30, tzinfo=UTC)
        assert bucket_key(ts, "day", DEFAULT_TZ) == date(2020, 3, 12)
        assert bucket_key(ts, "day", UTC) == date(2020, 3, 11)

    def test_hour_truncates(self):
        ts = datetime(2020, 3, 11, 14, 59, 59, tzinfo=UTC)
        key = bucket_key(ts, "hour", UTC)
        assert key == datetime(2020, 3, 11, 14, 0, tzinfo=UTC)

    @given(ts=st.datetimes(min_value=datetime(2, 1, 1), max_value=datetime(9998, 12, 31),
                           timezones=st.just(UTC)),
           offset=st.integers(-23 * 60 - 59, 23 * 60 + 59))
    # fold=1 survives astimezone to a fixed offset; the key must keep it, as replace() does
    @example(ts=datetime(2020, 3, 12, 15, 30, tzinfo=UTC).replace(fold=1), offset=0)
    def test_hour_key_is_the_truncated_local_time(self, ts, offset):
        tz = timezone(timedelta(minutes=offset))
        key = bucket_key(ts, "hour", tz)
        truncated = ts.astimezone(tz).replace(minute=0, second=0, microsecond=0)
        assert key == truncated and hash(key) == hash(truncated)
        assert key.tzinfo == tz and key.fold == truncated.fold

    def test_week_snaps_to_monday(self):
        # 2020-03-11 was a Wednesday
        ts = datetime(2020, 3, 11, 10, 0, tzinfo=UTC)
        key = bucket_key(ts, "week", UTC)
        assert key == date(2020, 3, 9)
        assert key.weekday() == 0

    def test_month_snaps_to_first(self):
        ts = datetime(2020, 3, 31, 23, 30, tzinfo=UTC)
        assert bucket_key(ts, "month", DEFAULT_TZ) == date(2020, 4, 1)

    def test_unknown_bucket(self):
        with pytest.raises(InputError, match="unknown bucket 'decade'"):
            bucket_key(datetime(2020, 3, 1, tzinfo=UTC), "decade", UTC)


class TestFrequencySeries:
    def test_gap_fill(self):
        msgs = [
            at("2020-03-01T10:00:00Z", id="a"),
            at("2020-03-01T11:00:00Z", id="b"),
            at("2020-03-01T12:00:00Z", id="c"),
            at("2020-03-03T10:00:00Z", id="d"),
        ]
        points = frequency_series(msgs, bucket="day", tz=UTC)
        assert [(p.bucket.isoformat(), p.n) for p in points] == [
            ("2020-03-01", 3), ("2020-03-02", 0), ("2020-03-03", 1),
        ]
        assert points[1].value == 0.0

    def test_hour_boundary(self):
        msgs = [at("2020-03-01T14:59:00Z", id="a"), at("2020-03-01T15:01:00Z", id="b")]
        points = frequency_series(msgs, bucket="hour", tz=UTC)
        assert len(points) == 2
        assert [p.n for p in points] == [1, 1]

    def test_conservation(self):
        msgs = [at(f"2020-03-{1 + i % 9:02d}T{i % 24:02d}:00:00Z", id=f"m{i}") for i in range(500)]
        points = frequency_series(msgs, bucket="day", tz=UTC)
        assert sum(p.n for p in points) == 500

    def test_buckets_strictly_increasing(self):
        msgs = [at(f"2020-03-{d:02d}T10:00:00Z", id=f"m{d}") for d in (9, 3, 7, 3)]
        points = frequency_series(msgs, bucket="day", tz=UTC)
        buckets = [p.bucket for p in points]
        assert buckets == sorted(buckets)
        assert len(set(buckets)) == len(buckets)

    def test_empty_input(self):
        assert frequency_series([], bucket="day", tz=UTC) == []

    @pytest.mark.parametrize("bucket", ["day", "hour"])
    def test_filled_span_is_bounded(self, bucket):
        start = datetime(2020, 3, 1, 10, tzinfo=UTC)
        widest = [at(start.isoformat(), id="a"), at((start + MAX_FILLED_SPAN).isoformat(), id="b")]
        points = frequency_series(widest, bucket=bucket, tz=UTC)
        assert sum(p.n for p in points) == 2
        assert len(points) == MAX_FILLED_SPAN.days * (24 if bucket == "hour" else 1) + 1
        # one stray message a millennium out, among a month of 2020 data
        msgs = [at(f"2020-03-{d:02d}T10:00:00Z", id=f"m{d}") for d in range(1, 31)]
        msgs.append(at("2999-03-01T10:00:00Z", id="stray"))
        with pytest.raises(InputError, match="timestamps from 2020-03-01.* to 2999-03-01"):
            frequency_series(msgs, bucket=bucket, tz=UTC)

    def test_last_bucket_of_year_9999(self):
        with pytest.raises(InputError, match="day of 9999-12-31 ends after"):
            frequency_series([at("9999-12-31T10:00:00Z")], bucket="day", tz=UTC)
        with pytest.raises(InputError, match="timestamp 9999-12-31T23:30:00.* leaves the years"):
            bucket_key(datetime(9999, 12, 31, 23, 30, tzinfo=UTC), "hour", DEFAULT_TZ)
        last_day = [SeriesPoint(bucket=date(9999, 12, 31), value=0.5, n=1)]
        with pytest.raises(InputError, match="day of 9999-12-31 ends after"):
            annotate_events(last_day, [Event(date=date(2020, 3, 1), label="x")])

    def test_bad_bucket(self):
        with pytest.raises(InputError, match="frequency bucket"):
            frequency_series([], bucket="week", tz=UTC)


class TestSentimentSeries:
    def test_constant_scores(self):
        scored = [(when(f"2020-03-0{d}T10:00:00Z"), 0.4) for d in (1, 2, 3)]
        points = sentiment_series(scored, bucket="day", tz=UTC)
        assert all(p.value == 0.4 for p in points)

    def test_hand_mean(self):
        scored = [
            (when("2020-03-01T10:00:00Z"), 0.6),
            (when("2020-03-01T11:00:00Z"), -0.7),
            (when("2020-03-01T12:00:00Z"), 0.0),
        ]
        points = sentiment_series(scored, bucket="day", tz=UTC)
        assert len(points) == 1
        assert points[0].value == pytest.approx(-0.1 / 3, abs=1e-12)
        assert points[0].n == 3

    def test_empty_buckets_omitted(self):
        scored = [
            (when("2020-03-01T10:00:00Z"), 0.5),
            (when("2020-03-05T10:00:00Z"), 0.5),
        ]
        points = sentiment_series(scored, bucket="day", tz=UTC)
        assert [p.bucket.isoformat() for p in points] == ["2020-03-01", "2020-03-05"]

    def test_planted_drop_lands_in_the_15h_bucket(self):
        scored = []
        for hour in range(12, 19):
            value = 0.3 if hour < 15 else -0.4
            for minute in (5, 25, 45):
                scored.append((when(f"2020-03-11T{hour:02d}:{minute:02d}:00Z"), value))
        points = sentiment_series(scored, bucket="hour", tz=UTC)
        by_hour = {p.bucket.hour: p.value for p in points}
        assert by_hour[14] == pytest.approx(0.3, abs=1e-12)
        assert by_hour[15] == pytest.approx(-0.4, abs=1e-12)

    def test_accepts_datetime_float_pairs(self, tmp_path):
        # the pairs that read_scored_csv replays from a scored CSV
        scored = [(at("2020-03-01T10:00:00Z", id="a"), PolarityScore(value=0.25, hits=1)),
                  (at("2020-03-01T22:30:00Z", id="b"), PolarityScore(value=-0.5, hits=2))]
        path = tmp_path / "scored.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_scored_csv(scored, handle)
        pairs = list(read_scored_csv(path))
        assert pairs == [(m.timestamp, score.value) for m, score in scored]
        assert [(p.value, p.n) for p in sentiment_series(pairs, tz=UTC)] == [(-0.125, 2)]


class TestStanceSeries:
    def test_hand_proportions(self):
        labels = ["supports", "supports", "rejects", "other"]
        labeled = [
            (when(f"2020-03-01T1{i}:00:00Z"), label) for i, label in enumerate(labels)
        ]
        series = stance_series(labeled, bucket="day", tz=UTC)
        assert len(series) == 1
        assert series[0].counts == (2, 1, 1)  # LABELS order
        assert series[0].n == 4
        assert stance_rows(series) == [["2020-03-01", "0.5", "0.25", "0.25", "4"]]

    def test_all_supports(self):
        labeled = [(when("2020-03-01T10:00:00Z"), "supports")]
        series = stance_series(labeled, bucket="day", tz=UTC)
        assert (series[0].counts, series[0].n) == ((1, 0, 0), 1)
        assert stance_rows(series) == [["2020-03-01", "1.0", "0.0", "0.0", "1"]]

    def test_planted_monthly_decline(self):
        planted = {3: 19, 4: 16, 5: 12, 6: 9}  # supports out of 20 per month
        labeled = []
        for month, supports in planted.items():
            for i in range(20):
                label = "supports" if i < supports else "rejects"
                labeled.append((when(f"2020-{month:02d}-15T10:{i:02d}:00Z"), label))
        series = stance_series(labeled, bucket="month", tz=UTC)
        assert [r.bucket.month for r in series] == [3, 4, 5, 6]
        assert [r.counts for r in series] == [(s, 20 - s, 0) for s in planted.values()]
        assert [row[1] for row in stance_rows(series)] == ["0.95", "0.8", "0.6", "0.45"]

    def test_week_bucketing(self):
        labeled = [
            (when("2020-03-11T10:00:00Z"), "supports"),  # Wednesday
            (when("2020-03-13T10:00:00Z"), "rejects"),   # same week Friday
            (when("2020-03-16T10:00:00Z"), "other"),     # next Monday
        ]
        series = stance_series(labeled, bucket="week", tz=UTC)
        assert [r.bucket.isoformat() for r in series] == ["2020-03-09", "2020-03-16"]
        assert series[0].n == 2

    def test_unknown_label(self):
        labeled = [(when("2020-03-01T10:00:00Z"), "twijfel")]
        with pytest.raises(InputError, match="unknown stance label 'twijfel'"):
            stance_series(labeled, bucket="day", tz=UTC)

    def test_bad_bucket(self):
        with pytest.raises(InputError, match="stance bucket"):
            stance_series([], bucket="hour", tz=UTC)

    @given(st.lists(st.sampled_from(["supports", "rejects", "other"]), min_size=1, max_size=30))
    def test_rates_sum_to_one(self, labels):
        labeled = [
            (when(f"2020-03-{1 + i % 28:02d}T10:00:00Z"), label)
            for i, label in enumerate(labels)
        ]
        series = stance_series(labeled, bucket="day", tz=UTC)
        assert all(sum(point.counts) == point.n for point in series)
        for row in stance_rows(series):
            assert math.fsum(map(float, row[1:4])) == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.tuples(st.integers(0, 60), st.sampled_from(LABELS)), max_size=40),
           st.lists(st.tuples(st.integers(0, 60), st.sampled_from(LABELS)), max_size=40),
           st.sampled_from(STANCE_BUCKETS))
    def test_counts_add_over_disjoint_corpora(self, first, second, bucket):
        # the series of A + B is the bucket-wise sum of the series of A and of B
        def series(draws):
            labeled = [(datetime(2020, 3, 1, 10, tzinfo=UTC) + timedelta(days=day), label)
                       for day, label in draws]
            return {p.bucket: (*p.counts, p.n) for p in stance_series(labeled, bucket=bucket)}

        a, b = series(first), series(second)
        zero = (0,) * (len(LABELS) + 1)
        summed = {key: tuple(x + y for x, y in zip(a.get(key, zero), b.get(key, zero)))
                  for key in a.keys() | b.keys()}
        assert series(first + second) == summed


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        series = day_points([2.5] * 10)
        for point in moving_average(series, window=7):
            assert point.value == 2.5

    def test_window_one_is_identity(self):
        series = day_points([1.0, 5.0, -2.0])
        smoothed = moving_average(series, window=1)
        assert [p.value for p in smoothed] == [1.0, 5.0, -2.0]

    def test_one_through_seven(self):
        series = day_points([1, 2, 3, 4, 5, 6, 7])
        smoothed = moving_average(series, window=7)
        assert smoothed[-1].value == 4.0
        assert smoothed[0].value == 1.0  # a short window: mean of [1]
        assert smoothed[1].value == 1.5

    def test_centered_mode(self):
        smoothed = moving_average(day_points([1, 2, 3, 4, 5]), window=3, centered=True)
        assert [p.value for p in smoothed] == [1.5, 2.0, 3.0, 4.0, 4.5]

    def test_preserves_buckets_and_counts(self):
        series = day_points([1, 2, 3])
        smoothed = moving_average(series, window=2)
        assert [p.bucket for p in smoothed] == [p.bucket for p in series]
        assert [p.n for p in smoothed] == [p.n for p in series]

    def test_window_validated(self):
        with pytest.raises(InputError, match="window must be at least 1"):
            moving_average(day_points([1.0]), window=0)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=25),
           st.integers(min_value=1, max_value=10))
    def test_stays_within_input_range(self, values, window):
        series = day_points(values)
        smoothed = moving_average(series, window=window)
        lo, hi = min(values), max(values)
        for point in smoothed:
            assert lo - 1e-9 <= point.value <= hi + 1e-9


class TestCorrelate:
    def test_self_correlation_is_exactly_one(self):
        series = day_points([1, 2, 3, 4, 5, 6, 7, 8])
        r, n = correlate(series, series)
        assert r == 1.0
        assert n == 8

    def test_negation_is_exactly_minus_one(self):
        series = day_points([1, 2, 3, 4, 5, 6, 7, 8])
        negated = [SeriesPoint(bucket=p.bucket, value=-p.value, n=p.n) for p in series]
        r, _ = correlate(series, negated)
        assert r == -1.0

    def test_three_point_hand_case(self):
        a = day_points([1, 2, 3])
        b = day_points([2, 4, 7])
        r, n = correlate(a, b)
        assert n == 3
        # 5 / sqrt(2 * 38/3), confirmed against scipy.stats.pearsonr
        assert r == pytest.approx(0.9933992677987828, abs=1e-15)

    def test_matches_reference_implementation(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        import random

        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(3, 30)
            xs = [rng.uniform(-5, 5) + 0.01 * i for i in range(n)]
            ys = [rng.uniform(-5, 5) + 0.02 * i for i in range(n)]
            r, _ = correlate(day_points(xs), day_points(ys))
            expected = scipy_stats.pearsonr(xs, ys).statistic
            assert r == pytest.approx(expected, abs=1e-12)

    def test_huge_values_do_not_overflow(self):
        other = day_points([0.3, 2.0, -1.5])
        r, n = correlate(day_points([1e200, -1e200, 0]), other)
        assert n == 3 and math.isfinite(r)
        assert r == pytest.approx(correlate(day_points([1, -1, 0]), other)[0], abs=1e-12)

    def test_overlap_only(self):
        a = day_points([1, 2, 3, 4], start="2020-03-01")
        b = day_points([5, 1, 2, 9], start="2020-03-03")  # overlaps on 03-03/03-04
        r, n = correlate(a, b)
        assert n == 2
        assert r == -1.0  # (3,4) vs (5,1): perfectly anti-ordered two points

    def test_too_few_overlapping(self):
        a = day_points([1, 2], start="2020-03-01")
        b = day_points([1, 2], start="2020-03-02")
        with pytest.raises(InputError, match="only 1 overlapping"):
            correlate(a, b)

    def test_zero_variance(self):
        a = day_points([3, 3, 3])
        b = day_points([1, 2, 3])
        with pytest.raises(InputError, match="zero variance"):
            correlate(a, b)
        with pytest.raises(InputError, match="zero variance"):
            correlate(b, a)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=15),
        st.floats(min_value=0.1, max_value=10),
        st.floats(min_value=-20, max_value=20),
    )
    def test_symmetry_and_affine_invariance(self, raw, scale, shift):
        values = [float(v) + 0.5 * i for i, v in enumerate(raw)]  # breaks constant runs
        if min(values) == max(values):
            return
        a = day_points(values)
        b = day_points(list(reversed(values)))
        r_ab, _ = correlate(a, b)
        r_ba, _ = correlate(b, a)
        assert r_ab == pytest.approx(r_ba, abs=1e-12)
        transformed = [SeriesPoint(bucket=p.bucket, value=scale * p.value + shift, n=p.n) for p in a]
        r_affine, _ = correlate(transformed, b)
        assert r_affine == pytest.approx(r_ab, abs=1e-12)


class TestExternalSeries:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "cbs.csv"
        path.write_text("2020-03-01,12\n2020-03-02,15\n2020-03-04,7\n", encoding="utf-8")
        points = read_series_csv(path)
        assert [(p.bucket.isoformat(), p.value) for p in points] == [
            ("2020-03-01", 12.0), ("2020-03-02", 15.0), ("2020-03-04", 7.0),
        ]
        assert all(p.n == 1 for p in points)

    def test_header_tolerated(self, tmp_path):
        path = tmp_path / "cbs.csv"
        path.write_text("date,value\n2020-03-01,12\n", encoding="utf-8")
        assert len(read_series_csv(path)) == 1

    def test_rows_sorted_by_date(self, tmp_path):
        path = tmp_path / "cbs.csv"
        path.write_text("2020-03-04,7\n2020-03-01,12\n", encoding="utf-8")
        points = read_series_csv(path)
        assert [p.bucket.isoformat() for p in points] == ["2020-03-01", "2020-03-04"]

    def test_duplicate_date(self, tmp_path):
        path = tmp_path / "cbs.csv"
        path.write_text("2020-03-01,12\n2020-03-01,13\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"duplicate date 2020-03-01, line 2"):
            read_series_csv(path)

    def test_unparseable_date(self, tmp_path):
        path = tmp_path / "cbs.csv"
        path.write_text("gisteren,12\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"unparseable date 'gisteren', line 1"):
            read_series_csv(path)

    @pytest.mark.parametrize("text", ["20200301", "2020-W09-7"])
    def test_date_in_a_form_python_3_10_refuses(self, tmp_path, text):
        path = tmp_path / "cbs.csv"
        path.write_text(f"2020-02-29,11\n{text},12\n", encoding="utf-8")
        with pytest.raises(InputError, match=rf"unparseable date '{text}', line 2"):
            read_series_csv(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "cbs.csv"
        path.write_text("2020-03-01,veel\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"bad value 'veel', line 1"):
            read_series_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="series file not found"):
            read_series_csv(tmp_path / "nope.csv")


class TestEvents:
    def test_load_events(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text(
            '[{"date": "2020-03-09", "label": "persconferentie"},'
            ' {"date": "2020-03-23", "label": "aangescherpte maatregelen"}]',
            encoding="utf-8",
        )
        events = load_events(path)
        assert events[0] == Event(date=date(2020, 3, 9), label="persconferentie")
        assert len(events) == 2

    def test_bad_event_reports_index(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text('[{"date": "2020-03-09", "label": "ok"}, {"datum": "x"}]', encoding="utf-8")
        with pytest.raises(InputError, match="bad event at index 1"):
            load_events(path)

    # a label is a string, never coerced; a date is YYYY-MM-DD on every interpreter
    @pytest.mark.parametrize("date_, label", [
        ('"2020-03-10"', "null"), ('"2020-03-10"', "7"), ('"2020-03-10"', '["x"]'),
        ('"20200310"', '"x"'), ('"2020-W11-2"', '"x"'), ("20200310", '"x"'),
    ])
    def test_label_and_date_are_read_by_type_and_form(self, tmp_path, date_, label):
        path = tmp_path / "events.json"
        path.write_text(f'[{{"date": "2020-03-09", "label": "ok"}}, '
                        f'{{"date": {date_}, "label": {label}}}]', encoding="utf-8")
        with pytest.raises(InputError, match="bad event at index 1"):
            load_events(path)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "events.json"
        path.write_text('{"date": "2020-03-09"}', encoding="utf-8")
        with pytest.raises(InputError, match="expected a list"):
            load_events(path)

    def test_marker_attached_to_existing_bucket(self):
        series = day_points([1, 2, 3], start="2020-03-01")
        events = [Event(date=date(2020, 3, 2), label="persco")]
        annotated = annotate_events(series, events)
        assert annotated.markers == {date(2020, 3, 2): ("persco",)}
        assert annotated.out_of_range == ()

    def test_event_outside_range(self):
        series = day_points([1, 2], start="2020-03-01")
        events = [
            Event(date=date(2020, 2, 28), label="te vroeg"),
            Event(date=date(2020, 3, 3), label="te laat"),
        ]
        annotated = annotate_events(series, events)
        assert annotated.markers == {}
        assert [e.label for e in annotated.out_of_range] == ["te vroeg", "te laat"]

    def test_event_in_week_bucket(self):
        monday = date(2020, 3, 9)
        series = [SeriesPoint(bucket=monday, value=1.0, n=3)]
        events = [Event(date=date(2020, 3, 11), label="persco")]  # Wednesday
        annotated = annotate_events(series, events, bucket="week")
        assert annotated.markers == {monday: ("persco",)}

    def test_multiple_events_one_bucket(self):
        series = day_points([1], start="2020-03-01")
        events = [Event(date=date(2020, 3, 1), label="a"), Event(date=date(2020, 3, 1), label="b")]
        annotated = annotate_events(series, events)
        assert annotated.markers[date(2020, 3, 1)] == ("a", "b")

    def test_event_in_hour_buckets_goes_to_the_last_bucket_of_its_date(self):
        hours = [datetime(2020, 3, 1, 9, tzinfo=UTC), datetime(2020, 3, 1, 17, tzinfo=UTC),
                 datetime(2020, 3, 3, 8, tzinfo=UTC), datetime(2020, 3, 3, 12, tzinfo=UTC),
                 datetime(2020, 3, 4, 10, tzinfo=UTC)]
        series = [SeriesPoint(bucket=hour, value=1.0, n=1) for hour in hours]
        events = [Event(date=date(2020, 3, d), label=f"d{d}") for d in (1, 2, 3)]
        annotated = annotate_events(series, events, bucket="hour")
        assert annotated.markers == {hours[1]: ("d1", "d2"), hours[3]: ("d3",)}

    def test_event_on_the_last_date_of_hour_buckets_is_in_range(self):
        hours = [datetime(2020, 3, 1, 9, tzinfo=UTC), datetime(2020, 3, 3, 12, tzinfo=UTC)]
        series = [SeriesPoint(bucket=hour, value=1.0, n=1) for hour in hours]
        events = [Event(date=date(2020, 3, 3), label="laatste dag"),
                  Event(date=date(2020, 3, 4), label="daarna")]
        annotated = annotate_events(series, events, bucket="hour")
        assert annotated.markers == {hours[1]: ("laatste dag",)}
        assert [e.label for e in annotated.out_of_range] == ["daarna"]


class TestCsvRoundTrips:
    def test_frequency_schema(self, tmp_path):
        msgs = [at("2020-03-01T10:00:00Z", id="a"), at("2020-03-03T10:00:00Z", id="b")]
        points = frequency_series(msgs, bucket="day", tz=UTC)
        path = tmp_path / "freq.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_frequency_csv(points, handle)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "bucket,n"
        replayed = read_series_csv(path)
        assert [(p.bucket, p.n) for p in replayed] == [(p.bucket, p.n) for p in points]

    def test_value_schema_preserves_float_bits(self, tmp_path):
        points = day_points([0.1 + 0.2, -1 / 3, 5e-17])
        path = tmp_path / "vals.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_value_csv(points, handle)
        replayed = read_series_csv(path)
        assert [p.value for p in replayed] == [p.value for p in points]
        assert [p.bucket for p in replayed] == [p.bucket for p in points]

    def test_stance_schema(self, tmp_path):
        labeled = [
            (when("2020-03-01T10:00:00Z"), "supports"),
            (when("2020-03-01T11:00:00Z"), "rejects"),
        ]
        series = stance_series(labeled, bucket="day", tz=UTC)
        path = tmp_path / "stance.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_stance_csv(series, handle)
        content = path.read_text(encoding="utf-8")
        assert content.splitlines()[0] == "bucket,support,reject,other,n"
        assert "0.5,0.5,0.0,2" in content.splitlines()[1]

    def test_stance_schema_reads_support_rate(self, tmp_path):
        labeled = [
            (when("2020-03-01T10:00:00Z"), "supports"),
            (when("2020-03-01T11:00:00Z"), "rejects"),
            (when("2020-03-01T12:00:00Z"), "rejects"),
            (when("2020-03-02T10:00:00Z"), "other"),
        ]
        series = stance_series(labeled, bucket="day", tz=UTC)
        path = tmp_path / "stance.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_stance_csv(series, handle)
        replayed = read_series_csv(path)
        assert [(p.bucket, p.value, p.n) for p in replayed] == [
            (r.bucket, r.counts[0] / r.n, r.n) for r in series
        ]

    def test_external_schema_fallback(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("date,value\n2020-03-01,4\n", encoding="utf-8")
        points = read_series_csv(path)
        assert points[0].value == 4.0

    def test_hour_buckets_round_trip(self, tmp_path):
        msgs = [at("2020-03-01T14:10:00Z", id="a"), at("2020-03-01T16:40:00Z", id="b")]
        points = frequency_series(msgs, bucket="hour", tz=DEFAULT_TZ)
        path = tmp_path / "hourly.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_frequency_csv(points, handle)
        replayed = read_series_csv(path)
        assert [p.bucket for p in replayed] == [p.bucket for p in points]


class TestMalformedSeriesRows:
    HEADERS = {"bucket,n": "2020-03-01,3", "bucket,mean,n": "2020-03-01,0.5,3"}

    def write(self, tmp_path, header, row):
        path = tmp_path / "series.csv"
        path.write_text(f"{header}\n{self.HEADERS[header]}\n{row}\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("header", list(HEADERS))
    def test_short_row(self, tmp_path, header):
        path = self.write(tmp_path, header, "2020-03-02")
        with pytest.raises(InputError, match=rf"series.csv: expected {header}, line 3"):
            read_series_csv(path)

    @pytest.mark.parametrize("header, row", [
        ("bucket,n", "2020-03-02,x"), ("bucket,mean,n", "2020-03-02,x,3"),
    ])
    def test_bad_value(self, tmp_path, header, row):
        path = self.write(tmp_path, header, row)
        with pytest.raises(InputError, match=r"series.csv: bad value 'x', line 3"):
            read_series_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value(self, tmp_path, value):
        path = self.write(tmp_path, "bucket,mean,n", f"2020-03-02,{value},3")
        with pytest.raises(InputError, match=rf"series.csv: bad value '{value}', line 3"):
            read_series_csv(path)

    @pytest.mark.parametrize("header", list(HEADERS))
    def test_duplicate_bucket(self, tmp_path, header):
        path = self.write(tmp_path, header, self.HEADERS[header])
        with pytest.raises(InputError, match=r"series.csv: duplicate bucket 2020-03-01, line 3"):
            read_series_csv(path)

    def test_unparseable_bucket(self, tmp_path):
        path = self.write(tmp_path, "bucket,n", "ooit,4")
        with pytest.raises(InputError, match=r"series.csv: unparseable bucket 'ooit', line 3"):
            read_series_csv(path)

    def test_bad_count(self, tmp_path):
        path = self.write(tmp_path, "bucket,mean,n", "2020-03-02,0.5,veel")
        with pytest.raises(InputError, match=r"series.csv: bad value 'veel', line 3"):
            read_series_csv(path)

    def test_days_and_hours_mixed(self, tmp_path):
        path = self.write(tmp_path, "bucket,n", "2020-03-02T10:00:00+01:00,4")
        with pytest.raises(InputError, match=r"mixes days and hours, line 3"):
            read_series_csv(path)


class TestBucketText:
    def test_date_round_trip(self):
        assert parse_bucket(format_bucket(date(2020, 3, 9))) == date(2020, 3, 9)

    def test_hour_round_trip(self):
        bucket = datetime(2020, 3, 9, 15, 0, tzinfo=DEFAULT_TZ)
        assert parse_bucket(format_bucket(bucket)) == bucket

    def test_naive_datetime_becomes_utc(self):
        parsed = parse_bucket("2020-03-09T15:00:00")
        assert parsed.tzinfo is UTC

    def test_garbage(self):
        with pytest.raises(InputError, match="unparseable bucket 'ooit'"):
            parse_bucket("ooit")

    # forms that fromisoformat takes from Python 3.11 on, refused on every interpreter
    @pytest.mark.parametrize("text", ["20200309", "2020-W11-1", "2020-03-09T1500+0100",
                                      "2020-03-09T15:00:00.5+01:00", "2020-03-09T15:00Z"])
    def test_only_the_python_3_10_forms(self, text):
        with pytest.raises(InputError, match="unparseable bucket"):
            parse_bucket(text)

    def test_any_one_character_separates_date_and_hour(self):
        assert parse_bucket("2020-03-09 15") == datetime(2020, 3, 9, 15, tzinfo=UTC)
