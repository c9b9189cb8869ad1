"""Bucketing, series construction, smoothing and correlation."""

import math
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import msg
from opinionpulse.exceptions import InputError
from opinionpulse.timeseries import (
    DEFAULT_TZ,
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

    @pytest.mark.parametrize("text", ["01:00", "+1:00", "+25:00", "+01:75", "gisteren"])
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

    def test_bad_bucket(self):
        with pytest.raises(InputError, match="frequency bucket"):
            frequency_series([], bucket="week", tz=UTC)


class TestSentimentSeries:
    def test_constant_scores(self):
        scored = [(at(f"2020-03-0{d}T10:00:00Z", id=f"m{d}"), 0.4) for d in (1, 2, 3)]
        points = sentiment_series(scored, bucket="day", tz=UTC)
        assert all(p.value == 0.4 for p in points)

    def test_hand_mean(self):
        scored = [
            (at("2020-03-01T10:00:00Z", id="a"), 0.6),
            (at("2020-03-01T11:00:00Z", id="b"), -0.7),
            (at("2020-03-01T12:00:00Z", id="c"), 0.0),
        ]
        points = sentiment_series(scored, bucket="day", tz=UTC)
        assert len(points) == 1
        assert points[0].value == pytest.approx(-0.1 / 3, abs=1e-12)
        assert points[0].n == 3

    def test_empty_buckets_omitted(self):
        scored = [
            (at("2020-03-01T10:00:00Z", id="a"), 0.5),
            (at("2020-03-05T10:00:00Z", id="b"), 0.5),
        ]
        points = sentiment_series(scored, bucket="day", tz=UTC)
        assert [p.bucket.isoformat() for p in points] == ["2020-03-01", "2020-03-05"]

    def test_planted_drop_lands_in_the_15h_bucket(self):
        scored = []
        for hour in range(12, 19):
            value = 0.3 if hour < 15 else -0.4
            for minute in (5, 25, 45):
                scored.append((at(f"2020-03-11T{hour:02d}:{minute:02d}:00Z", id=f"m{hour}{minute}"), value))
        points = sentiment_series(scored, bucket="hour", tz=UTC)
        by_hour = {p.bucket.hour: p.value for p in points}
        assert by_hour[14] == pytest.approx(0.3, abs=1e-12)
        assert by_hour[15] == pytest.approx(-0.4, abs=1e-12)

    def test_accepts_datetime_float_pairs(self):
        msgs = [(at("2020-03-01T10:00:00Z", id="a"), 0.25)]
        raw = [(datetime(2020, 3, 1, 10, 0, tzinfo=UTC), 0.25)]
        assert sentiment_series(msgs, tz=UTC) == sentiment_series(raw, tz=UTC)


class TestStanceSeries:
    def test_hand_proportions(self):
        labels = ["supports", "supports", "rejects", "other"]
        labeled = [
            (at(f"2020-03-01T1{i}:00:00Z", id=f"m{i}"), label) for i, label in enumerate(labels)
        ]
        series = stance_series(labeled, bucket="day", tz=UTC)
        assert len(series) == 1
        rates = series[0]
        assert (rates.support_rate, rates.reject_rate, rates.other_rate) == (0.5, 0.25, 0.25)
        assert rates.n == 4

    def test_all_supports(self):
        labeled = [(at("2020-03-01T10:00:00Z", id="a"), "supports")]
        rates = stance_series(labeled, bucket="day", tz=UTC)[0]
        assert (rates.support_rate, rates.reject_rate, rates.other_rate) == (1.0, 0.0, 0.0)

    def test_planted_monthly_decline(self):
        planted = {3: 19, 4: 16, 5: 12, 6: 9}  # supports out of 20 per month
        labeled = []
        for month, supports in planted.items():
            for i in range(20):
                label = "supports" if i < supports else "rejects"
                labeled.append((at(f"2020-{month:02d}-15T10:{i:02d}:00Z", id=f"m{month}{i}"), label))
        series = stance_series(labeled, bucket="month", tz=UTC)
        assert [r.bucket.month for r in series] == [3, 4, 5, 6]
        for rates, (month, supports) in zip(series, planted.items()):
            assert rates.support_rate == pytest.approx(supports / 20, abs=1e-9)
        assert series[0].support_rate == 0.95
        assert series[-1].support_rate == 0.45

    def test_week_bucketing(self):
        labeled = [
            (at("2020-03-11T10:00:00Z", id="a"), "supports"),  # Wednesday
            (at("2020-03-13T10:00:00Z", id="b"), "rejects"),   # same week Friday
            (at("2020-03-16T10:00:00Z", id="c"), "other"),     # next Monday
        ]
        series = stance_series(labeled, bucket="week", tz=UTC)
        assert [r.bucket.isoformat() for r in series] == ["2020-03-09", "2020-03-16"]
        assert series[0].n == 2

    def test_unknown_label(self):
        labeled = [(at("2020-03-01T10:00:00Z", id="a"), "twijfel")]
        with pytest.raises(InputError, match="unknown stance label 'twijfel'"):
            stance_series(labeled, bucket="day", tz=UTC)

    def test_bad_bucket(self):
        with pytest.raises(InputError, match="stance bucket"):
            stance_series([], bucket="hour", tz=UTC)

    @given(st.lists(st.sampled_from(["supports", "rejects", "other"]), min_size=1, max_size=30))
    def test_rates_sum_to_one(self, labels):
        labeled = [
            (at(f"2020-03-{1 + i % 28:02d}T10:00:00Z", id=f"m{i}"), label)
            for i, label in enumerate(labels)
        ]
        for rates in stance_series(labeled, bucket="day", tz=UTC):
            assert rates.support_rate + rates.reject_rate + rates.other_rate == pytest.approx(
                1.0, abs=1e-9
            )


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        series = day_points([2.5] * 10)
        for point in moving_average(series, window=7):
            assert point.value == 2.5

    def test_window_one_is_identity(self):
        series = day_points([1.0, 5.0, -2.0])
        smoothed = moving_average(series, window=1)
        assert [p.value for p in smoothed] == [1.0, 5.0, -2.0]
        assert not any(p.partial for p in smoothed)

    def test_one_through_seven(self):
        series = day_points([1, 2, 3, 4, 5, 6, 7])
        smoothed = moving_average(series, window=7)
        assert smoothed[-1].value == 4.0
        assert smoothed[0].value == 1.0  # partial: mean of [1]
        assert smoothed[1].value == 1.5

    def test_partial_flags_trailing(self):
        smoothed = moving_average(day_points([1, 2, 3, 4, 5]), window=3)
        assert [p.partial for p in smoothed] == [True, True, False, False, False]

    def test_centered_mode(self):
        smoothed = moving_average(day_points([1, 2, 3, 4, 5]), window=3, centered=True)
        assert [p.value for p in smoothed] == [1.5, 2.0, 3.0, 4.0, 4.5]
        assert [p.partial for p in smoothed] == [True, False, False, False, True]

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
            (at("2020-03-01T10:00:00Z", id="a"), "supports"),
            (at("2020-03-01T11:00:00Z", id="b"), "rejects"),
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
            (at("2020-03-01T10:00:00Z", id="a"), "supports"),
            (at("2020-03-01T11:00:00Z", id="b"), "rejects"),
            (at("2020-03-01T12:00:00Z", id="c"), "rejects"),
            (at("2020-03-02T10:00:00Z", id="d"), "other"),
        ]
        series = stance_series(labeled, bucket="day", tz=UTC)
        path = tmp_path / "stance.csv"
        with open(path, "w", encoding="utf-8") as handle:
            write_stance_csv(series, handle)
        replayed = read_series_csv(path)
        assert [(p.bucket, p.value, p.n) for p in replayed] == [
            (r.bucket, r.support_rate, r.n) for r in series
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
