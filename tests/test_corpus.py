"""Ingest, dedup and sampling tests, including the streaming-memory check."""

import io
import json
import logging
import random
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_messages, msg, write_corpus
from opinionpulse.corpus import (
    PLATFORMS,
    REJECT_WARNINGS,
    CorpusStats,
    Message,
    dedup,
    filter_lang,
    format_timestamp,
    ingest,
    message_to_record,
    parse_timestamp,
    sample,
    write_jsonl,
)
from opinionpulse.exceptions import InputError


class TestParseTimestamp:
    def test_iso_with_z_suffix(self):
        ts = parse_timestamp("2020-03-12T15:00:00Z")
        assert ts == datetime(2020, 3, 12, 15, 0, tzinfo=timezone.utc)

    def test_epoch_seconds(self):
        assert parse_timestamp(1584025200) == datetime(2020, 3, 12, 15, 0, tzinfo=timezone.utc)

    def test_offset_normalized_to_utc(self):
        ts = parse_timestamp("2020-03-12T16:00:00+01:00")
        assert ts == datetime(2020, 3, 12, 15, 0, tzinfo=timezone.utc)
        assert ts.tzinfo == timezone.utc

    def test_naive_treated_as_utc(self):
        assert parse_timestamp("2020-03-12T15:00:00").tzinfo == timezone.utc

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("twaalf maart")

    @pytest.mark.parametrize("value", [
        99999999999999999999, -99999999999999999999, 1e400, float("-inf"),
        "99999999999999999999", "-99999999999999999999",
        # in range as written, out of datetime's years 1-9999 once moved to UTC
        "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00",
        # not a date: an epoch string is ASCII digits with an optional minus
        float("nan"), "\u00b2", "\u0661\u0665\u0668\u0663" + "\u0660" * 6,
        # forms fromisoformat takes from Python 3.11 on, refused on every interpreter
        "20200312T150000Z", "2020-W11-4T15:00", "2020-03-12T15:00:00.5Z", "2020-03-12T15:00+0100",
    ])
    def test_value_no_datetime_holds_raises_value_error(self, value):
        with pytest.raises(ValueError, match=r"^bad timestamp: "):
            parse_timestamp(value)

    @pytest.mark.parametrize("value, expected", [
        ("2020-03-12", datetime(2020, 3, 12)),
        ("2020-03-12 15", datetime(2020, 3, 12, 15)),
        ("2020-03-12\u00e915:30", datetime(2020, 3, 12, 15, 30)),
        ("2020-03-12T16:30:00.250+01:00:30", datetime(2020, 3, 12, 15, 29, 30, 250000)),
    ])
    def test_python_3_10_forms(self, value, expected):
        assert parse_timestamp(value) == expected.replace(tzinfo=timezone.utc)


class TestMessage:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            msg("   ")

    def test_rejects_unknown_platform(self):
        with pytest.raises(ValueError):
            msg("tekst", platform="myspace")

    def test_lang_lowercased(self):
        assert msg("tekst", lang="NL").lang == "nl"


class TestIngest:
    def test_well_formed_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id":"1","created_at":"2020-03-12T15:00:00Z","text":"persconferentie",'
            '"lang":"nl","platform":"twitter"}\n',
            encoding="utf-8",
        )
        stream = ingest(path)
        msgs = list(stream)
        assert len(msgs) == 1
        assert msgs[0].text == "persconferentie"
        assert msgs[0].timestamp == datetime(2020, 3, 12, 15, 0, tzinfo=timezone.utc)
        assert stream.stats.rejected == 0

    def test_malformed_line_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            stream = ingest(path)
            assert list(stream) == []
        assert stream.stats.rejected == 1
        # the diagnostic names the line number
        assert any("line 1" in rec.getMessage() for rec in caplog.records)

    def test_line_nested_too_deeply_skipped_and_counted(self, tmp_path, caplog):
        path = tmp_path / "c.jsonl"
        good = ('{"id":"%d","created_at":"2020-03-12T15:00:00Z","text":"bericht",'
                '"lang":"nl","platform":"twitter"}\n')
        path.write_text(good % 1 + "[" * 100_000 + "\n" + good % 2, encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            stream = ingest(path)
            assert [m.id for m in stream] == ["1", "2"]
        assert stream.stats.rejected == 1
        assert [rec.getMessage() for rec in caplog.records] == [
            "c.jsonl line 2 rejected: JSON nested too deeply"]

    def test_1000_lines_with_3_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad_at = {100, 500, 900}
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(1000):
                if i in bad_at:
                    handle.write("{broken\n")
                else:
                    handle.write(json.dumps({
                        "id": str(i), "created_at": "2020-03-12T15:00:00Z",
                        "text": f"bericht {i}", "lang": "nl", "platform": "twitter",
                    }) + "\n")
        stream = ingest(path)
        msgs = list(stream)
        assert len(msgs) == 997
        assert stream.stats.total == 997
        assert stream.stats.rejected == 3

    @pytest.mark.parametrize("extra", [0, 7])
    def test_rejected_line_warnings_capped(self, tmp_path, caplog, extra):
        bad = REJECT_WARNINGS + extra
        path = tmp_path / "c.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(bad):
                handle.write("{broken\n")
                handle.write(json.dumps({"id": str(i), "created_at": "2020-03-12T15:00:00Z",
                                         "text": f"bericht {i}"}) + "\n")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            stream = ingest(path)
            assert len(list(stream)) == bad
        assert stream.stats.rejected == bad
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == REJECT_WARNINGS + (1 if extra else 0)
        # bad lines are the odd ones; the last warned about is bad line N
        assert messages[REJECT_WARNINGS - 1].startswith(
            f"c.jsonl line {2 * REJECT_WARNINGS - 1} rejected: ")
        if extra:
            assert messages[-1] == (f"c.jsonl: {extra} more rejected lines not shown, "
                                    f"{bad} rejected in total")

    def test_stats_totals_agree(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(path, make_messages([f"tekst {i}" for i in range(50)]))
        stream = ingest(path)
        list(stream)
        stats = stream.stats.to_dict()
        assert stats["total"] == sum(stats["per_day"].values())
        assert stats["total"] == sum(stats["per_platform"].values())

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(InputError):
            ingest(tmp_path / "absent.jsonl")

    def test_tsv_format(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "id\tcreated_at\ttext\tlang\tplatform\n"
            "1\t2020-03-12T15:00:00Z\tpersconferentie\tnl\ttwitter\n",
            encoding="utf-8",
        )
        msgs = list(ingest(path, fmt="tsv"))
        assert len(msgs) == 1
        assert msgs[0].platform == "twitter"

    @pytest.mark.parametrize("fmt, line, field", [
        ("jsonl", b'{"id":"1","created_at":"2020-03-12T15:00:00Z","text":"half \\ud83d"}', "text"),
        ("jsonl", b'{"id":"1","created_at":"2020-03-12T15:00:00Z","text":"byte \xff"}', "text"),
        ("jsonl", b'{"id":"\\udc00","created_at":"2020-03-12T15:00:00Z","text":"x"}', "id"),
        ("jsonl", b'{"id":"1","created_at":"2020-03-12T15:00:00Z","text":"x","lang":"n\xffl"}',
         "lang"),
        ("tsv", b"1\t2020-03-12T15:00:00Z\tbyte \xff\tnl\ttwitter", "text"),
        ("tsv", b"1\t2020-03-12T15:00:00Z\tx\tnl\ttwit\xe9ter", "platform"),
    ])
    def test_surrogate_field_rejected_with_reason(self, fmt, line, field, tmp_path, caplog):
        # a whole pair, escaped or as UTF-8 bytes, is one emoji
        good = {"jsonl": b'{"id":"2","created_at":"2020-03-12T15:00:00Z","text":"pair \\ud83d\\ude00"}',
                "tsv": b"2\t2020-03-12T15:00:00Z\tpair \xf0\x9f\x98\x80\tnl\ttwitter"}[fmt]
        path = tmp_path / f"c.{fmt}"
        path.write_bytes(line + b"\n" + good + b"\n")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            stream = ingest(path, fmt=fmt)
            msgs = list(stream)
        assert [m.text for m in msgs] == ["pair \U0001F600"]
        assert stream.stats.rejected == 1
        assert [rec.getMessage() for rec in caplog.records] == [
            f"c.{fmt} line 1 rejected: {field} holds a surrogate code point "
            "(an undecodable byte or an unpaired \\u escape)"]

    def test_unparseable_timestamp_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"1","created_at":"gisteren","text":"x"}\n', encoding="utf-8")
        stream = ingest(path)
        assert list(stream) == []
        assert stream.stats.rejected == 1

    @pytest.mark.parametrize("fmt, created", [
        ("jsonl", "99999999999999999999"), ("jsonl", "1e400"),
        ("jsonl", '"99999999999999999999"'), ("tsv", "99999999999999999999"),
    ])
    def test_out_of_range_timestamp_rejected(self, fmt, created, tmp_path, caplog):
        good = msg("tweede", id="2")
        path = tmp_path / f"c.{fmt}"
        if fmt == "jsonl":
            write_corpus(path, [good])
            bad = f'{{"id": "1", "created_at": {created}, "text": "x"}}\n'
        else:
            path.write_text(f"2\t2020-03-12T15:00:00Z\ttweede\tnl\ttwitter\n",
                            encoding="utf-8")
            bad = f"1\t{created}\tx\tnl\ttwitter\n"
        path.write_text(bad + path.read_text(encoding="utf-8"), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            stream = ingest(path, fmt=fmt)
            assert list(stream) == [good]
        assert stream.stats.rejected == 1
        [warning] = [rec.getMessage() for rec in caplog.records]
        assert warning.startswith(f"c.{fmt} line 1 rejected: bad timestamp: ")

    def test_odd_timestamp_rejected_as_bad_timestamp(self, tmp_path, caplog):
        arabic_indic = "\u0661\u0665\u0668\u0663" + "\u0660" * 6  # 1583000000
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "1", "created_at": NaN, "text": "x"}\n'
                        + "".join(json.dumps({"id": "1", "created_at": created, "text": "x"}) + "\n"
                                  for created in ("\u00b2", arabic_indic, "1583000000")),
                        encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            stream = ingest(path)
            assert [m.timestamp for m in stream] == [parse_timestamp(1583000000)]
        assert [rec.getMessage() for rec in caplog.records] == [
            f"c.jsonl line {n} rejected: bad timestamp: {value!r}"
            for n, value in ((1, float("nan")), (2, "\u00b2"), (3, arabic_indic))]

    @staticmethod
    def ingest_fields(tmp_path, caplog, *extras):
        """Ingest one line per dict in ``extras``, each merged into a valid record."""
        path = tmp_path / "c.jsonl"
        path.write_text("".join(
            json.dumps({"id": "1", "created_at": "2020-03-12T15:00:00Z", "text": "x", **extra})
            + "\n" for extra in extras), encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="opinionpulse.corpus"):
            msgs = list(ingest(path))
        return msgs, [rec.getMessage().partition("rejected: ")[2] for rec in caplog.records]

    def test_retweet_is_true_or_false(self, tmp_path, caplog):
        msgs, reasons = self.ingest_fields(
            tmp_path, caplog, {"retweet": True}, {"retweet": False}, {"retweet": None}, {},
            {"retweet": "false"}, {"retweet": 1}, {"retweet": 0})
        assert [m.is_repost for m in msgs] == [True, False, False, False]
        assert reasons == ["retweet is not true or false"] * 3

    def test_null_lang_and_platform_take_their_defaults(self, tmp_path, caplog):
        msgs, reasons = self.ingest_fields(
            tmp_path, caplog, {"lang": None, "platform": None}, {"lang": "NL"},
            {"lang": 5}, {"platform": ["twitter"]})
        assert [(m.lang, m.platform) for m in msgs] == [("und", "twitter"), ("nl", "twitter")]
        assert len(list(filter_lang(msgs, "nl"))) == 2
        assert reasons == ["lang is not a string", "platform is not a string"]

    def test_id_is_a_string_or_an_integer(self, tmp_path, caplog):
        msgs, reasons = self.ingest_fields(
            tmp_path, caplog, {"id": "7"}, {"id": 8}, {"id": [1, 2]}, {"id": True},
            {"id": 1.5}, {"id": None})
        assert [m.id for m in msgs] == ["7", "8"]
        assert reasons == ["id is not a string or an integer"] * 4


class TestRoundTrip:
    def test_field_for_field(self, tmp_path):
        original = [
            msg("Eén bericht met ünïcode \U0001F637", id="a", ts="2020-03-12T14:30:05Z",
                lang="nl", platform="nunl", is_repost=True),
            msg("tweede", id="b", ts="2020-06-01T00:00:00Z", platform="reddit"),
        ]
        path = tmp_path / "c.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            assert write_jsonl(original, handle) == 2
        again = list(ingest(path))
        assert again == original

    @settings(max_examples=50)
    @given(
        text=st.text(min_size=1).filter(lambda s: s.strip() and "\n" not in s and "\r" not in s),
        epoch=st.integers(min_value=0, max_value=2_000_000_000),
        lang=st.sampled_from(["nl", "en", "und"]),
        platform=st.sampled_from(["twitter", "nunl", "reddit"]),
        repost=st.booleans(),
    )
    def test_record_round_trip(self, text, epoch, lang, platform, repost):
        original = Message(
            id="x", timestamp=parse_timestamp(epoch), text=text,
            lang=lang, platform=platform, is_repost=repost,
        )
        record = json.loads(json.dumps(message_to_record(original), ensure_ascii=False))
        from opinionpulse.corpus import _message_from_json

        assert _message_from_json(json.dumps(record, ensure_ascii=False)) == original

    @settings(max_examples=50)
    @given(
        texts=st.lists(st.text(min_size=1).filter(str.strip), min_size=1, max_size=5),
        emoji=st.sampled_from(["", "\U0001F637", "\U0001F44D\U0001F3FD", "\u2764\ufe0f"]),
    )
    def test_write_jsonl_bytes_match_per_record_dumps(self, texts, emoji):
        msgs = [msg(f"Eén {text} {emoji}", id=f"ïd{i}") for i, text in enumerate(texts)]
        handle = io.StringIO()
        assert write_jsonl(msgs, handle) == len(msgs)
        expected = "".join(json.dumps(message_to_record(m), ensure_ascii=False) + "\n"
                           for m in msgs)
        assert handle.getvalue().encode("utf-8") == expected.encode("utf-8")


    JSON_HARD = st.lists(st.sampled_from(['"', "\\", "\x00", "\x01", "\x1f", "\n", "\r", "\t", "\u2028",
                                          "\u2029", "\x7f", "\U0001F637", "/", "a", "é", " "]),
                         min_size=1, max_size=8).map("".join)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(JSON_HARD, JSON_HARD.filter(str.strip), st.sampled_from(PLATFORMS),
                              st.sampled_from(["nl", "und", "x\x7f\"é"]), st.booleans(),
                              st.datetimes(timezones=st.just(timezone.utc))),
                    min_size=1, max_size=5))
    def test_write_jsonl_escapes_as_json_dumps_and_reads_back(self, fields_list):
        msgs = [Message(msg_id, when.replace(microsecond=0), text, lang, platform, repost)
                for msg_id, text, platform, lang, repost, when in fields_list]
        handle = io.StringIO()
        assert write_jsonl(msgs, handle) == len(msgs)
        assert handle.getvalue() == "".join(
            json.dumps(message_to_record(m), ensure_ascii=False) + "\n" for m in msgs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            path.write_text(handle.getvalue(), encoding="utf-8")
            assert [fields(m) for m in ingest(path)] == [fields(m) for m in msgs]

    @given(st.datetimes(timezones=st.just(timezone.utc)))
    def test_format_timestamp_is_isoformat_in_seconds_with_z(self, when):
        assert format_timestamp(when) == when.isoformat(timespec="seconds").replace("+00:00", "Z")

    def test_format_timestamp_writes_the_utc_instant(self):
        # an offset is converted and a naive value is taken as UTC, as Message takes them
        plus_one = datetime(2020, 3, 1, 0, 30, tzinfo=timezone(timedelta(hours=1)))
        assert format_timestamp(plus_one) == "2020-02-29T23:30:00Z"
        assert format_timestamp(datetime(2020, 3, 1, 0, 30)) == "2020-03-01T00:30:00Z"
        assert format_timestamp(plus_one) == format_timestamp(Message("m", plus_one, "x").timestamp)


class TestFilterLang:
    def test_keeps_matching_tag(self):
        msgs = [msg("a", lang="nl"), msg("b", lang="en"), msg("c", lang="nl")]
        assert len(list(filter_lang(msgs, "nl"))) == 2

    def test_und_retained_by_default(self):
        assert len(list(filter_lang([msg("a", lang="und")], "nl"))) == 1

    def test_ten_percent_excluded(self):
        msgs = [msg(f"t{i}", lang="en") for i in range(10)]
        msgs += [msg(f"t{i}", lang="nl") for i in range(10, 100)]
        assert len(list(filter_lang(msgs, "nl"))) == 90

    def test_bad_tag(self):
        with pytest.raises(ValueError):
            list(filter_lang([msg("a")], "nederlands!"))


class TestDedup:
    def test_by_id(self):
        msgs = [msg("eerste", id="1"), msg("tweede", id="1"), msg("derde", id="2")]
        assert [m.text for m in dedup(msgs, mode="by_id")] == ["eerste", "derde"]

    def test_same_id_different_platform_kept(self):
        msgs = [msg("a", id="1", platform="twitter"), msg("b", id="1", platform="reddit")]
        assert len(list(dedup(msgs, mode="by_id"))) == 2

    def test_by_exact_text(self):
        msgs = [msg("RT abc", id="1"), msg("RT abc", id="2")]
        assert len(list(dedup(msgs, mode="by_exact_text"))) == 1

    def test_100_with_20_duplicates(self):
        msgs = [msg(f"tekst {i}", id=f"a{i}") for i in range(80)]
        msgs += [msg(f"tekst {i}", id=f"b{i}") for i in range(20)]
        assert len(list(dedup(msgs, mode="by_exact_text"))) == 80

    def test_by_exact_text_keys_on_trimmed_text_with_surrogates(self):
        # ingest rejects surrogates, but a Message built in-process may hold one
        msgs = [msg("\ud800 abc", id="1"), msg(" \ud800 abc\n", id="2"), msg("\udc00 abc", id="3")]
        assert [m.id for m in dedup(msgs, mode="by_exact_text")] == ["1", "3"]

    def test_by_exact_text_holds_digests_not_texts(self):
        long_texts = (msg(f"{i:05d} " + "x" * 2_000, id=str(i)) for i in range(2_000))
        tracemalloc.start()
        kept = sum(1 for _ in dedup(long_texts, mode="by_exact_text"))
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert kept == 2_000
        assert peak_bytes < 1_000_000  # the texts alone are 4 MB

    def test_by_id_holds_digests_not_ids(self):
        long_ids = (msg("tekst", id=f"{i:05d}" + "x" * 2_000) for i in range(2_000))
        tracemalloc.start()
        kept = sum(1 for _ in dedup(long_ids, mode="by_id"))
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert kept == 2_000
        assert peak_bytes < 1_000_000  # the ids alone are 4 MB

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(PLATFORMS),
        st.lists(st.sampled_from(["0", "1", "12", "\x00", "\ud800", "twitter"]), max_size=3)
        .map("".join)), max_size=20))
    def test_by_id_keeps_what_platform_id_pairs_keep(self, keys):
        # NUL and a lone surrogate only arise in-process; ingest rejects surrogates
        msgs = [msg(f"t{i}", id=msg_id, platform=platform)
                for i, (platform, msg_id) in enumerate(keys)]
        first = {}
        for m in msgs:
            first.setdefault((m.platform, m.id), m)
        assert list(dedup(msgs, mode="by_id")) == list(first.values())

    @pytest.mark.parametrize("mode", ["by_id", "by_exact_text"])
    def test_memory_per_distinct_key(self, mode):
        small, large = 20_000, 200_000
        when = datetime(2020, 3, 12, 15, tzinfo=timezone.utc)
        msgs = (Message(id=str(i), timestamp=when, text=f"tekst {i}") for i in range(large))
        traced = {}
        tracemalloc.start()
        # read while dedup is still running: its set is freed once it is exhausted
        for kept, _ in enumerate(dedup(msgs, mode=mode), start=1):
            if kept in (small, large):
                traced[kept] = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert (traced[large] - traced[small]) / (large - small) <= 120  # bytes per added key

    @given(st.lists(st.sampled_from(["aap", "noot", "mies", "wim"]), max_size=30))
    def test_idempotent(self, texts):
        msgs = [msg(t, id=str(i)) for i, t in enumerate(texts)]
        once = list(dedup(msgs, mode="by_exact_text"))
        assert list(dedup(once, mode="by_exact_text")) == once


class TestSample:
    def test_rate_one_is_identity(self):
        msgs = make_messages([f"t{i}" for i in range(1000)])
        assert list(sample(msgs, rate=1.0, seed=42)) == msgs

    def test_exact_n_deterministic_and_ordered(self):
        msgs = make_messages([f"t{i}" for i in range(10)])
        first = sample(msgs, n=3, seed=7)
        second = sample(msgs, n=3, seed=7)
        assert first == second
        assert len(first) == 3
        positions = [msgs.index(m) for m in first]
        assert positions == sorted(positions)

    @staticmethod
    def algorithm_r(items, n, seed):
        """The documented rule, by hand: position i >= n replaces slot randrange(i + 1) < n."""
        rng = random.Random(seed)
        slots = list(range(min(n, len(items))))
        for i in range(n, len(items)):
            j = rng.randrange(i + 1)
            if j < n:
                slots[j] = i
        return [items[i] for i in sorted(slots)]

    @pytest.mark.parametrize("size, n", [(10, 3), (10, 10), (10, 0), (50, 1), (50, 49)])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_exact_n_is_algorithm_r_over_one_pass(self, size, n, seed):
        msgs = make_messages([f"t{i}" for i in range(size)])
        assert sample(iter(msgs), n=n, seed=seed) == self.algorithm_r(msgs, n, seed)

    def test_exact_n_is_uniform_over_positions(self):
        size, n, runs = 20, 5, 2_000
        msgs = make_messages([f"t{i}" for i in range(size)])
        hits = {m.id: 0 for m in msgs}
        for seed in range(runs):
            for m in sample(msgs, n=n, seed=seed):
                hits[m.id] += 1
        p = n / size
        sigma = (runs * p * (1 - p)) ** 0.5
        assert all(abs(count - runs * p) < 5 * sigma for count in hits.values())

    def test_exact_n_holds_n_messages_not_the_population(self):
        def peak(population):
            stream = (msg(f"bericht {i}", id=str(i)) for i in range(population))
            tracemalloc.start()
            picked = sample(stream, n=100, seed=1)
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert len(picked) == 100
            return peak_bytes

        assert peak(20_000) < 2 * peak(2_000) + 64_000

    def test_rate_holds_no_messages(self):
        def peak(population):
            stream = (msg(f"bericht {i}", id=str(i)) for i in range(population))
            tracemalloc.start()
            picked = sum(1 for _ in sample(stream, rate=1.0, seed=1))
            _, peak_bytes = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert picked == population
            return peak_bytes

        assert peak(20_000) < 2 * peak(2_000) + 64_000

    def test_rate_checks_its_arguments_at_the_call(self):
        with pytest.raises(ValueError, match="rate must be in"):
            sample(iter(()), rate=1.5, seed=1)

    def test_n_too_large_names_both_numbers(self):
        msgs = make_messages(["a", "b"])
        with pytest.raises(ValueError, match=r"3.*2"):
            sample(msgs, n=3, seed=1)

    def test_requires_exactly_one_mode(self):
        msgs = make_messages(["a"])
        with pytest.raises(ValueError):
            sample(msgs, seed=1)
        with pytest.raises(ValueError):
            sample(msgs, rate=0.5, n=1, seed=1)

    def test_rate_preserves_order(self):
        msgs = make_messages([f"t{i}" for i in range(200)])
        picked = sample(msgs, rate=0.3, seed=11)
        positions = [msgs.index(m) for m in picked]
        assert positions == sorted(positions)

    def test_rate_sizes_match_binomial_within_3_sigma(self):
        # mean size over seeds must approach rate*N
        n, rate, runs = 400, 0.25, 60
        msgs = make_messages([f"t{i}" for i in range(n)])
        sizes = [len(list(sample(msgs, rate=rate, seed=s))) for s in range(runs)]
        mean = sum(sizes) / runs
        sigma_of_mean = (n * rate * (1 - rate)) ** 0.5 / runs ** 0.5
        assert abs(mean - n * rate) < 3 * sigma_of_mean


def test_streaming_memory_is_flat(tmp_path):
    """Peak memory may not scale with file size (10x lines, <2x memory)."""
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    record = {"id": "0", "created_at": "2020-03-12T15:00:00Z",
              "text": "een doorsnee bericht over van alles", "lang": "nl",
              "platform": "twitter"}
    line = json.dumps(record) + "\n"
    small.write_text(line * 2_000, encoding="utf-8")
    large.write_text(line * 20_000, encoding="utf-8")

    def peak(path):
        tracemalloc.start()
        count = sum(1 for _ in ingest(path))
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return count, peak_bytes

    n_small, peak_small = peak(small)
    n_large, peak_large = peak(large)
    assert n_small == 2_000 and n_large == 20_000
    assert peak_large < 2 * peak_small + 256_000


# -- ingest against a reference reader ---------------------------------------
# The reader below is ingest as it was before its fast paths: json.loads per
# line, the general timestamp parser, and the public Message constructor.

# the ISO forms that datetime.fromisoformat takes on Python 3.10, spelled out: Y, M, D,
# h, m, s and f stand for an ASCII digit, T for any one character and + for a sign
PY310_FORMS = ["YYYY-MM-DD"] + [
    f"YYYY-MM-DDT{time}{offset}"
    for time in ("hh", "hh:mm", "hh:mm:ss", "hh:mm:ss.fff", "hh:mm:ss.ffffff")
    for offset in ("", "+hh:mm", "+hh:mm:ss", "+hh:mm:ss.ffffff")
]


def fits(form: str, text: str) -> bool:
    def char_fits(f, c):
        if f in "YMDhmsf":
            return c in "0123456789"
        return f == "T" or c in ("+-" if f == "+" else f)
    return len(form) == len(text) and all(map(char_fits, form, text))


def reference_parse_timestamp(value) -> datetime:
    if isinstance(value, bool):
        raise ValueError(f"bad timestamp: {value!r}")
    try:
        if isinstance(value, (int, float)):
            return datetime.fromtimestamp(int(value), tz=timezone.utc)
        if isinstance(value, str):
            raw = value.strip()
            if raw.isascii() and raw.removeprefix("-").isdigit():
                return datetime.fromtimestamp(int(raw), tz=timezone.utc)
            if raw.endswith(("Z", "z")):
                raw = raw[:-1] + "+00:00"
            if not any(fits(form, raw) for form in PY310_FORMS):
                raise ValueError("a form later Pythons add")
            parsed = datetime.fromisoformat(raw)
            if parsed.tzinfo is None:
                return parsed.replace(tzinfo=timezone.utc)
            return parsed.astimezone(timezone.utc)
    except (OverflowError, OSError, ValueError):
        raise ValueError(f"bad timestamp: {value!r}") from None
    raise ValueError(f"bad timestamp: {value!r}")


def reference_message(line: str) -> Message:
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("line is not a JSON object")
    try:
        msg_id, created, text = record["id"], record["created_at"], record["text"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]}") from None
    if not isinstance(text, str):
        raise ValueError("text is not a string")
    if not isinstance(msg_id, str):
        if not isinstance(msg_id, int) or isinstance(msg_id, bool):
            raise ValueError("id is not a string or an integer")
        msg_id = str(msg_id)
    lang, platform, repost = record.get("lang"), record.get("platform"), record.get("retweet")
    lang = "und" if lang is None else lang
    platform = "twitter" if platform is None else platform
    if not isinstance(lang, str) or not isinstance(platform, str):
        raise ValueError(f"{'platform' if isinstance(lang, str) else 'lang'} is not a string")
    if not (repost is None or isinstance(repost, bool)):
        raise ValueError("retweet is not true or false")
    for name, value in (("id", msg_id), ("text", text), ("lang", lang), ("platform", platform)):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{name} holds a surrogate code point "
                             "(an undecodable byte or an unpaired \\u escape)") from None
    return Message(id=msg_id, timestamp=reference_parse_timestamp(created), text=text,
                   lang=lang, platform=platform, is_repost=repost is True)


def reference_ingest(path) -> tuple[list, list]:
    """Accepted messages and every reject warning, in file order."""
    accepted, warnings = [], []
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            try:
                accepted.append(reference_message(line))
            except ValueError as exc:
                warnings.append(f"{path.name} line {lineno} rejected: {exc}")
    return accepted, warnings


def ingest_with_warnings(path) -> tuple[list, list]:
    """ingest's messages and the warnings it logs, without the function-scoped caplog."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("opinionpulse.corpus")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    try:
        msgs = list(ingest(path))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return msgs, [record.getMessage() for record in records]


def fields(m: Message) -> tuple:
    """A message with its timestamp as written, offset included: == on aware datetimes
    compares instants only."""
    return m.id, m.timestamp.isoformat(), m.text, m.lang, m.platform, m.is_repost


ODD_TIMESTAMPS = [
    "2020-03-12T15:00:00Z", "2020-02-30T10:00:00Z", "2020-03-12T15:00:00z", "0999-06-01T10:00:00Z",
    "9999-12-31T23:59:59Z", "0001-01-01T00:00:00Z", "2020-03-12T15:00:00.250Z",
    "2020-03-12 15:00:00Z", "   2020-03-12T15:00Z", "2020-03-12T15:00:00+01:00", "20200312T150000Z",
    "\u0662\u0660\u0662\u0660-03-12T15:00:00Z", "2020-03-12T15:00:0\u0661Z", "abcdefghijklmnopqrsZ",
    " 2020-03-12T15:00:00Z", "2020-03-12T15:00:00Z ", "1583000000", "-5", "", "Z", 1583000000,
    1e400, True, None, [2020],
    # taken by fromisoformat from Python 3.11 on only, so refused on every interpreter
    "2020-W11-4T15:00", "2020-03-12T15:00:00.5Z", "2020-03-12T15:00:00,250Z",
    "2020-03-12T1500Z", "2020-03-12T15:00+0100", "2020-072T15:00Z",
    # the 3.10 grammar at its edges
    "2020-03-12", "2020-03-12T15", "2020-03-12\u00e915:00Z", "2020-03-12T15:00:00+01:00:30",
    "2020-03-12T15:00:00.123456-01:00:30.250000", "2020-03-12T15:00:00+01:00:30.25",
]
TIMESTAMPS = st.one_of(
    st.sampled_from(ODD_TIMESTAMPS),
    st.datetimes().map(lambda d: d.isoformat(timespec="seconds") + "Z"),
    st.text(alphabet="0123456789-:TZz+ .", min_size=17, max_size=22),
    st.text(min_size=19, max_size=19).map(lambda s: s + "Z"),  # 20 characters, not a timestamp
)
ODD_TEXTS = ["tekst", " ", "\u3000\u3000", "\u3000x", "", "\x00", "\ud800", "\udcff x",
             "a\U0001F600b", "tab\there", "  ", '"\\', "\x7f", "\r\n"]
TEXTS = st.one_of(st.sampled_from(ODD_TEXTS), st.text(max_size=8))
# the JSON line around the record: as written, with whitespace, or with data after it
WRAPS = [lambda s: s, lambda s: " " + s, lambda s: s + "\t", lambda s: "\u3000" + s,
         lambda s: s + " {}", lambda s: s + "x", lambda s: s[:-1], lambda s: f"[{s}]",
         lambda s: "\ufeff" + s]


@st.composite
def corpus_lines(draw) -> bytes:
    record = {
        "id": draw(st.sampled_from(["1", "ïd", 7, True, None, [1], 1.5, "\udc80"])),
        "created_at": draw(TIMESTAMPS),
        "text": draw(TEXTS),
        "lang": draw(st.sampled_from(["nl", "NL", "Nl", "und", "İ", "", None, 5, "\ud800"])),
        "platform": draw(st.sampled_from([*PLATFORMS, "Twitter", "myspace", None, 3])),
        "retweet": draw(st.sampled_from([True, False, None, "false", 1])),
    }
    for key in draw(st.sets(st.sampled_from(sorted(record)), max_size=2)):
        del record[key]
    line = draw(st.sampled_from(WRAPS))(json.dumps(record, ensure_ascii=draw(st.booleans())))
    data = line.encode("utf-8", "surrogatepass")
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]  # an undecodable byte, read as a surrogate
    return data + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))


class TestIngestReference:
    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(corpus_lines(), max_size=8))
    def test_messages_and_reject_warnings_match_reference(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            path.write_bytes(b"".join(lines))
            expected, expected_warnings = reference_ingest(path)
            msgs, warnings = ingest_with_warnings(path)
        assert [fields(m) for m in msgs] == [fields(m) for m in expected]
        assert warnings == expected_warnings

    @pytest.mark.parametrize("value", [
        *ODD_TIMESTAMPS,  # 2020-02-30T10:00:00Z and Arabic-Indic digits among them
        # more of the written form out of range, and fullwidth digits in its shape
        "2020-13-01T00:00:00Z", "2020-03-12T24:00:00Z", "0000-01-01T00:00:00Z",
        "\uff12\uff10\uff12\uff10-03-12T15:00:00Z",
    ])
    def test_written_form_matches_general_path(self, value):
        # parse_timestamp's fast path for YYYY-MM-DDTHH:MM:SSZ accepts and refuses as the
        # general path does, with the same message and the same timezone.utc result
        try:
            expected = reference_parse_timestamp(value)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_timestamp(value)
            assert str(raised.value) == str(exc)
        else:
            got = parse_timestamp(value)
            assert got == expected and got.tzinfo is timezone.utc

    @settings(max_examples=300)
    @given(value=st.one_of(TIMESTAMPS, st.text(max_size=25)))
    def test_parse_timestamp_matches_general_path(self, value):
        try:
            expected = reference_parse_timestamp(value).isoformat()
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_timestamp(value)
            assert str(raised.value) == str(exc)
        else:
            assert parse_timestamp(value).isoformat() == expected

    @settings(max_examples=200)
    @given(text=TEXTS, lang=st.sampled_from(["nl", "NL", "und", "İ", "ǅ", ""]),
           when=st.datetimes(timezones=st.sampled_from([None, timezone.utc,
                                                         timezone(timedelta(hours=-3))])))
    def test_message_normalizes_as_documented(self, text, lang, when):
        if not text.strip():
            with pytest.raises(ValueError, match="^message text is empty$"):
                Message(id="1", timestamp=when, text=text, lang=lang)
            return
        try:
            utc = (when.replace(tzinfo=timezone.utc) if when.tzinfo is None
                   else when.astimezone(timezone.utc))
        except OverflowError:
            return
        m = Message(id="1", timestamp=when, text=text, lang=lang)
        assert (m.timestamp.isoformat(), m.timestamp.tzinfo, m.lang) == (
            utc.isoformat(), timezone.utc, lang.lower())

    @pytest.mark.parametrize("record, reason", [
        # surrogate before bad timestamp, either form of timestamp
        ({"created_at": "2020-02-30T10:00:00Z", "text": "x\ud800"},
         "text holds a surrogate code point (an undecodable byte or an unpaired \\u escape)"),
        ({"created_at": "gisteren", "id": "\udc80"},
         "id holds a surrogate code point (an undecodable byte or an unpaired \\u escape)"),
        # bad timestamp before empty text or unknown platform
        ({"created_at": "2020-02-30T10:00:00Z", "text": "\u3000"},
         "bad timestamp: '2020-02-30T10:00:00Z'"),
        ({"created_at": "2020-03-12T25:00:00z", "platform": "myspace"},
         "bad timestamp: '2020-03-12T25:00:00z'"),
        ({"created_at": 1e400, "text": " "}, "bad timestamp: inf"),
        # empty text before unknown platform
        ({"text": "\u3000", "platform": "myspace"}, "message text is empty"),
    ])
    def test_reject_reason_of_a_line_with_two_faults(self, record, reason, tmp_path):
        path = tmp_path / "c.jsonl"
        line = json.dumps({"id": "1", "created_at": "2020-03-12T15:00:00Z", "text": "x", **record})
        path.write_text(line + "\n", encoding="utf-8")
        assert ingest_with_warnings(path) == ([], [f"c.jsonl line 1 rejected: {reason}"])
        assert reference_ingest(path) == ([], [f"c.jsonl line 1 rejected: {reason}"])


class TestCorpusStats:
    def test_per_day_keys_are_iso_dates_in_order(self):
        stats = CorpusStats()
        for day in ("2020-03-02", "9999-12-31", "0999-06-01", "2020-03-01", "2020-03-02"):
            stats.add(msg("tekst", ts=f"{day}T23:59:59Z"))
        per_day = stats.to_dict()["per_day"]
        assert list(per_day.items()) == [("0999-06-01", 1), ("2020-03-01", 1),
                                         ("2020-03-02", 2), ("9999-12-31", 1)]
        assert json.dumps(stats.to_dict()) == (
            '{"total": 5, "rejected": 0, "per_day": {"0999-06-01": 1, "2020-03-01": 1, '
            '"2020-03-02": 2, "9999-12-31": 1}, "per_platform": {"twitter": 5}}')
