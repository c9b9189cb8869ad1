"""Message corpus ingestion, validation, deduplication and sampling.

Corpora live in flat line-delimited files (JSONL, or a TSV alternative).
Ingestion is streaming: memory stays constant in the file size, malformed
lines are counted and skipped, never fatal. All timestamps are normalized
to UTC at ingest; display bucketing applies its own offset downstream.
"""

from __future__ import annotations

import json
import logging
import random
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from json.encoder import encode_basestring as _quote  # json.dumps' escaper, ensure_ascii=False
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .exceptions import InputError, from_isoformat, json_loads

try:  # the blake2b that hashlib returns, without the OpenSSL library hashlib maps (~3.5 MiB)
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

logger = logging.getLogger("opinionpulse.corpus")

PLATFORMS = ("twitter", "nunl", "reddit")

_TSV_COLUMNS = ("id", "created_at", "text", "lang", "platform")
_scan_once = json.JSONDecoder().scan_once  # json.loads without its whitespace and end checks
# a timestamp as write_jsonl writes it, which fromisoformat takes on every Python
_WRITTEN_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)

# rejected lines an ingest pass warns about one by one; the rest get one summary line
REJECT_WARNINGS = 20


def parse_timestamp(value) -> datetime:
    """Parse an ISO-8601 string or integer epoch seconds into aware UTC.

    Naive ISO strings are taken as UTC; offsets are converted. An epoch
    string is ASCII digits with an optional leading minus, as JSON writes
    a number. Any other value, or one that no ``datetime`` can hold such
    as an epoch of 20 digits, raises ``ValueError("bad timestamp: ...")``.
    """
    if isinstance(value, bool):
        raise ValueError(f"bad timestamp: {value!r}")
    try:
        if isinstance(value, str) and _WRITTEN_TIMESTAMP.fullmatch(value):
            return datetime.fromisoformat(value[:19] + "+00:00")  # tzinfo is timezone.utc
        if isinstance(value, (int, float)):
            return datetime.fromtimestamp(int(value), tz=timezone.utc)
        if isinstance(value, str):
            raw = value.strip()
            if raw.isascii() and raw.removeprefix("-").isdigit():
                return datetime.fromtimestamp(int(raw), tz=timezone.utc)
            if raw.endswith(("Z", "z")):
                raw = raw[:-1] + "+00:00"
            return _as_utc(from_isoformat(datetime, raw))
    except (OverflowError, OSError, ValueError):
        # not a date, past time_t or datetime's years 1-9999, or a NaN or infinite float
        raise ValueError(f"bad timestamp: {value!r}") from None
    raise ValueError(f"bad timestamp: {value!r}")


def _as_utc(ts: datetime) -> datetime:
    """``ts`` as aware UTC; a naive value is taken to be UTC already."""
    if ts.tzinfo is timezone.utc:  # as parse_timestamp returns it: nothing to convert
        return ts
    return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts.astimezone(timezone.utc)


@dataclass(frozen=True, slots=True)
class Message:
    """One social-media post, immutable and thread-safe.

    ``timestamp`` is normalized to aware UTC on construction, ``lang`` is
    lowercased. Construction fails for empty text or unknown platform.
    """

    id: str
    timestamp: datetime
    text: str
    lang: str = "und"
    platform: str = "twitter"
    is_repost: bool = False

    def __post_init__(self):
        if self.text.isspace() or not self.text:  # the test of `not text.strip()`, without a copy
            raise ValueError("message text is empty")
        if self.platform not in PLATFORMS:
            raise ValueError(f"unknown platform {self.platform!r}")
        if self.timestamp.tzinfo is not timezone.utc:
            object.__setattr__(self, "timestamp", _as_utc(self.timestamp))
        if not self.lang.islower():  # a string that is islower() is its own lower()
            object.__setattr__(self, "lang", self.lang.lower())


@dataclass
class CorpusStats:
    """Running counts of an ingest pass.

    ``total`` covers accepted messages only; day keys are UTC date ordinals.
    """

    total: int = 0
    rejected: int = 0
    per_day: dict = field(default_factory=dict)
    per_platform: dict = field(default_factory=dict)

    def add(self, msg: Message) -> None:
        self.total += 1
        day = msg.timestamp.toordinal()
        self.per_day[day] = self.per_day.get(day, 0) + 1
        self.per_platform[msg.platform] = self.per_platform.get(msg.platform, 0) + 1

    def reject(self) -> None:
        self.rejected += 1

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "rejected": self.rejected,
            "per_day": {date.fromordinal(day).isoformat(): n
                        for day, n in sorted(self.per_day.items())},
            "per_platform": dict(sorted(self.per_platform.items())),
        }


class MessageStream:
    """Iterator that exposes the stats gathered while it is consumed.

    ``ingest`` streams Messages with ``CorpusStats``; ``polarity.score_stream``
    streams (Message, PolarityScore) pairs with a ``ScoreSummary``.
    """

    def __init__(self, iterator: Iterator, stats):
        self._iterator = iterator
        self.stats = stats

    @property
    def summary(self):
        """``stats``, under the name ``score_stream`` callers have used."""
        return self.stats

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._iterator)


def _check_decoded(**fields: str) -> None:
    """Reject a field that holds a surrogate code point, which no encoder writes."""
    for name, value in fields.items():
        if value.isascii():
            continue
        try:
            value.encode("utf-8")  # fails on surrogates only, faster than a search
        except UnicodeEncodeError:
            raise ValueError(f"{name} holds a surrogate code point "
                             "(an undecodable byte or an unpaired \\u escape)") from None


def _message_from_json(line: str) -> Message:
    try:
        record, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = -1
    if end != len(line):  # json.loads gives the same object, or the same error
        record = json_loads(line)
    if not isinstance(record, dict):
        raise ValueError("line is not a JSON object")
    try:
        msg_id = record["id"]
        created = record["created_at"]
        text = record["text"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]}") from None
    if not isinstance(text, str):
        raise ValueError("text is not a string")
    if not isinstance(msg_id, str):
        if not isinstance(msg_id, int) or isinstance(msg_id, bool):
            raise ValueError("id is not a string or an integer")
        msg_id = str(msg_id)
    # a missing or null lang, platform or retweet takes its default
    lang, platform, repost = record.get("lang"), record.get("platform"), record.get("retweet")
    if lang is None:
        lang = "und"
    if platform is None:
        platform = "twitter"
    if not isinstance(lang, str) or not isinstance(platform, str):
        raise ValueError(f"{'platform' if isinstance(lang, str) else 'lang'} is not a string")
    if not (repost is None or isinstance(repost, bool)):
        raise ValueError("retweet is not true or false")
    _check_decoded(id=msg_id, text=text, lang=lang, platform=platform)
    return Message(msg_id, parse_timestamp(created), text, lang, platform, repost is True)


def _message_from_tsv(line: str) -> Message:
    parts = line.split("\t")
    if len(parts) != len(_TSV_COLUMNS):
        raise ValueError(f"expected {len(_TSV_COLUMNS)} columns, got {len(parts)}")
    msg_id, created, text, lang, platform = parts
    _check_decoded(id=msg_id, text=text, lang=lang, platform=platform)
    return Message(msg_id, parse_timestamp(created), text, lang, platform)


def ingest(path, fmt: str = "jsonl") -> MessageStream:
    """Stream Messages from a line-delimited file.

    Malformed lines are counted in ``stats.rejected``; they never abort
    the stream. The first ``REJECT_WARNINGS`` of them are logged with
    their line number, and once the stream is exhausted one more warning
    gives the number not shown and the total. A line whose ``id``,
    ``text``, ``lang`` or ``platform`` holds a byte that is not UTF-8, or
    a ``\\u`` escape of half a surrogate pair, is one of them. The
    returned stream holds the file open until exhausted.
    """
    if fmt not in ("jsonl", "tsv"):
        raise ValueError(f"unknown format {fmt!r}")
    path = Path(path)
    if not path.is_file():
        raise InputError(f"corpus file not found: {path}")
    parse = _message_from_json if fmt == "jsonl" else _message_from_tsv
    header = "\t".join(_TSV_COLUMNS) if fmt == "tsv" else None  # tolerated on line 1
    stats = CorpusStats()

    def generate():
        # undecodable bytes become surrogates, which reject only their own line
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.rstrip("\n")  # universal newlines leave no "\r"
                if not line or (lineno == 1 and line == header):
                    continue
                try:
                    msg = parse(line)
                except ValueError as exc:
                    stats.reject()
                    if stats.rejected <= REJECT_WARNINGS:
                        logger.warning("%s line %d rejected: %s", path.name, lineno, exc)
                    continue
                stats.add(msg)
                yield msg
        if stats.rejected > REJECT_WARNINGS:
            logger.warning("%s: %d more rejected lines not shown, %d rejected in total",
                           path.name, stats.rejected - REJECT_WARNINGS, stats.rejected)

    return MessageStream(generate(), stats)


def format_timestamp(ts: datetime) -> str:
    """``ts`` in UTC as every writer emits it, with a four-digit year: ``0999-06-01T10:00:00Z``.
    A naive ``ts`` is taken to be UTC, as ``Message`` takes it."""
    ts = _as_utc(ts)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (ts.year, ts.month, ts.day,
                                               ts.hour, ts.minute, ts.second)


def message_to_record(msg: Message) -> dict:
    """JSONL record for a message; inverse of the ingest schema."""
    return {
        "id": msg.id,
        "created_at": format_timestamp(msg.timestamp),
        "text": msg.text,
        "lang": msg.lang,
        "platform": msg.platform,
        "retweet": msg.is_repost,
    }


def record_members(msg: Message) -> str:
    """The members of ``json.dumps(message_to_record(msg), ensure_ascii=False)``, without
    its braces, built with its escaper (time and platform need none)."""
    return (f'"id": {_quote(msg.id)}, "created_at": "{format_timestamp(msg.timestamp)}", '
            f'"text": {_quote(msg.text)}, "lang": {_quote(msg.lang)}, '
            f'"platform": "{msg.platform}", "retweet": {"true" if msg.is_repost else "false"}')


def write_jsonl(msgs: Iterable[Message], handle) -> int:
    """Write messages to an open text handle, one ``{record_members(msg)}`` per line."""
    count = 0
    for msg in msgs:
        handle.write(f"{{{record_members(msg)}}}\n")
        count += 1
    return count


def filter_lang(msgs: Iterable[Message], keep: str) -> Iterator[Message]:
    """Retain messages whose language tag equals ``keep``, and untagged ("und") ones.

    Untagged messages are always kept: upstream language tags are more
    reliable than any local guess we could make.
    """
    keep = keep.lower()
    if not keep.isalpha() or not 2 <= len(keep) <= 3:
        raise ValueError(f"invalid language tag {keep!r}")
    for msg in msgs:
        if msg.lang == keep or msg.lang == "und":
            yield msg


def dedup(msgs: Iterable[Message], mode: str = "by_id") -> Iterator[Message]:
    """Drop duplicate messages, first occurrence wins, order preserved.

    Both modes key on a 16-byte BLAKE2b digest, so memory grows by the
    digest, not the key, per distinct message: ``by_id`` hashes platform,
    NUL and id (no platform holds a NUL), ``by_exact_text`` the trimmed
    text. Two keys merge only on a 128-bit digest collision.
    """
    if mode not in ("by_id", "by_exact_text"):
        raise ValueError(f"unknown dedup mode {mode!r}")
    seen = set()
    for msg in msgs:
        raw = f"{msg.platform}\0{msg.id}" if mode == "by_id" else msg.text.strip()
        # surrogatepass: a Message built in-process may hold a lone surrogate
        key = blake2b(raw.encode("utf-8", "surrogatepass"), digest_size=16).digest()
        if key in seen:
            continue
        seen.add(key)
        yield msg


def sample(
    msgs: Iterable[Message],
    *,
    rate: float | None = None,
    n: int | None = None,
    seed: int,
) -> Iterable[Message]:
    """Uniform sample without replacement, order-preserving, seeded.

    Exactly one of ``rate``/``n`` must be given, checked at the call. ``rate``
    streams: one independent Bernoulli per message as it is consumed (size is binomial).
    ``n`` picks an exact-size subset in one pass with reservoir sampling
    (Vitter 1985, Algorithm R), holding at most ``n`` messages: message
    ``i`` (from 0) past the first ``n`` replaces reservoir slot
    ``rng.randrange(i + 1)`` when that is below ``n``.
    """
    if (rate is None) == (n is None):
        raise ValueError("give exactly one of rate or n")
    rng = random.Random(seed)
    if rate is not None:
        if not 0 < rate <= 1:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        return (msg for msg in msgs if rng.random() < rate)
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    reservoir = []  # (input position, message)
    seen = 0
    for seen, msg in enumerate(msgs, start=1):
        if seen <= n:
            reservoir.append((seen, msg))
        else:
            slot = rng.randrange(seen)
            if slot < n:
                reservoir[slot] = (seen, msg)
    if n > seen:
        raise ValueError(f"requested sample of {n} from population of {seen}")
    reservoir.sort(key=itemgetter(0))
    return [msg for _, msg in reservoir]
