"""Topic selection: keyword sets, regex queries and t-score query expansion.

Keyword filtering is case-insensitive substring matching, so a keyword
like "corona" also selects longer words such as "coronavirus". Query
expansion compares token frequencies between the matched and unmatched
sides of a corpus with a two-sample t-score and surfaces candidate terms
for a human to judge; it never grows the query on its own.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .constants import DATA_DIR
from .corpus import Message
from .exceptions import InputError, input_json
from .tokenization import normalize_counts


@dataclass(frozen=True)
class TopicQuery:
    """A named on-topic predicate: a text matches if any keyword or the regex does.

    Keywords are stored lowercase and matched as case-insensitive
    substrings (no word boundaries). The regex, if not empty, is compiled
    once and searched against the case-folded text, unanchored, with
    ``.`` not matching newlines; a regex with a literal character that
    differs from its own ``casefold()`` is compiled with ``re.IGNORECASE``
    (see ``_has_upper_literal``).
    """

    name: str
    keywords: frozenset = frozenset()
    regex: str | None = None
    _pattern: re.Pattern | None = field(init=False, repr=False, compare=False, default=None)
    _folded: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        keywords = frozenset(k.lower() for k in self.keywords)
        object.__setattr__(self, "keywords", keywords)
        if not keywords and not self.regex:
            raise InputError(f"query {self.name!r} has neither keywords nor regex")
        if not all(k.strip() for k in keywords):  # "" is in every text
            raise InputError(f"query {self.name!r} has a blank keyword")
        if self.regex:
            # the text is case-folded; upper case in the pattern would never match it
            flags = re.IGNORECASE if _has_upper_literal(self.regex) else 0
            try:
                pattern = re.compile(self.regex, flags)
            except re.error as exc:
                raise InputError(f"query {self.name!r} has invalid regex: {exc}") from None
            object.__setattr__(self, "_pattern", pattern)
        object.__setattr__(self, "_folded", tuple(k.casefold() for k in keywords))

    def matches(self, text: str) -> bool:
        if self.keywords and keyword_match(self, text):
            return True
        return self._pattern is not None and regex_match(self, text)


# one unit of a pattern's text: a backslash escape that spells a character, a backslash
# pair, or a single character
_PATTERN_UNIT = re.compile(r"\\(?:x[0-9a-fA-F]{2}|u[0-9a-fA-F]{4}|U[0-9a-fA-F]{8}|[0-7]{3}"
                           r"|N\{[^}]*\}|.)|.", re.DOTALL)


def _has_upper_literal(regex: str) -> bool:
    """Whether a literal character of ``regex`` differs from its ``casefold()``.

    The text is read as single characters and backslash escapes. An escaped
    ASCII letter or digit (``\\S``, ``\\W``, ``\\D``, ``\\B``, ``\\A``, ``\\Z``,
    ``\\n``, a backreference) is no literal; ``\\x``, ``\\u``, ``\\U`` and
    three-digit octal escapes are decoded, and ``\\N{...}`` counts as upper case.
    """
    for unit in _PATTERN_UNIT.findall(regex):
        if len(unit) == 1:
            char = unit
        elif unit[1] == "N" and len(unit) > 2:
            return True
        elif len(unit) > 2:  # past U+10FFFF re.compile refuses the pattern anyway
            char = chr(min(int(unit[2:], 16) if unit[1] in "xuU" else int(unit[1:], 8),
                           0x10FFFF))
        elif unit[1].isascii() and unit[1].isalnum():
            continue
        else:
            char = unit[1]
        if char != char.casefold():
            return True
    return False


def keyword_match(query: TopicQuery, text: str) -> bool:
    """True iff any keyword occurs as a case-insensitive substring."""
    if not query.keywords:
        raise ValueError(f"query {query.name!r} has no keywords")
    folded = text.casefold()
    return any(keyword in folded for keyword in query._folded)


def regex_match(query: TopicQuery, text: str) -> bool:
    """True iff the query pattern matches anywhere in the case-folded text."""
    if query._pattern is None:
        raise ValueError(f"query {query.name!r} has no regex")
    return query._pattern.search(text.casefold()) is not None


def load_query(path) -> TopicQuery:
    """Read a query from JSON {name, keywords, regex}.

    ``keywords`` is a list of strings and the other fields are strings; a
    missing or null field takes its default. A legacy ``combine`` field
    must name the mode the filled fields imply, or be null.
    """
    path = Path(path)
    record = input_json(path, "query")
    if not isinstance(record, dict):
        raise InputError(f"{path.name}: expected a JSON object, got {type(record).__name__}")
    for key in ("name", "regex"):
        if record.get(key) is not None and not isinstance(record[key], str):
            raise InputError(f"{path.name}: {key} must be a string, "
                             f"got {type(record[key]).__name__}")
    keywords = record.get("keywords")
    if keywords is None:
        keywords = []
    elif not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
        raise InputError(f"{path.name}: keywords must be a list of strings")
    name = record.get("name")
    regex = record.get("regex")
    combine = record.get("combine")
    implied = ("keywords_or_regex" if keywords and regex
               else "regex_only" if regex else "keywords_only")
    if combine not in (None, implied):
        raise InputError(f"{path.name}: combine must be {implied!r} or absent, got {combine!r}")
    try:
        return TopicQuery(name=path.stem if name is None else name,
                          keywords=frozenset(keywords), regex=regex)
    except InputError as exc:  # the query's own rules, named with the file like the rest
        raise InputError(f"{path.name}: {exc}") from None


# shipped query files, plus the query names they define as aliases
_BUILTIN_ALIASES = {
    "pandemic": "table2",
    "social-distancing": "socialdistancing",
    "social_distancing": "socialdistancing",
}


def builtin_query_path(name: str) -> Path:
    """Filesystem path of a query shipped with the package (e.g. "table2")."""
    name = _BUILTIN_ALIASES.get(name, name)
    path = DATA_DIR / f"{name}.json"
    if not path.is_file():
        raise InputError(f"no builtin query named {name!r}")
    return path


def load_builtin_query(name: str) -> TopicQuery:
    return load_query(builtin_query_path(name))


def iter_partition(msgs: Iterable[Message], query: TopicQuery) -> Iterator[tuple[Message, bool]]:
    """Single-pass streaming partition: yields (message, matched?)."""
    for msg in msgs:
        yield msg, query.matches(msg.text)


@dataclass(frozen=True)
class CollocationStats:
    """Per-token comparison of the matched vs unmatched sub-corpus."""

    token: str
    count_matched: int
    count_unmatched: int
    n_matched: int
    n_unmatched: int
    t: float


def tscore(count_matched: int, count_unmatched: int, n_matched: int, n_unmatched: int) -> float:
    """Two-sample difference-of-proportions t-score for one token.

    t = (p1 - p2) / sqrt(p1/n1 + p2/n2) with p1 = count_matched/n1 and
    p2 = count_unmatched/n2. Finite whenever the token occurs at all.
    """
    p_matched = count_matched / n_matched
    p_unmatched = count_unmatched / n_unmatched
    denom = math.sqrt(p_matched / n_matched + p_unmatched / n_unmatched)
    return (p_matched - p_unmatched) / denom


def tscore_rank(
    matched: Mapping[str, int],
    unmatched: Mapping[str, int],
    min_count: int = 5,
    top_k: int = 20,
) -> list[CollocationStats]:
    """Rank tokens over-represented in the matched side by t-score.

    Considers tokens with count_matched >= min_count; ties break on
    higher matched count, then token order. min_count defaults to 5 to
    suppress hapax noise.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    n_matched = sum(matched.values())
    n_unmatched = sum(unmatched.values())
    if n_matched <= 0:
        raise InputError("no matched tokens")
    if n_unmatched <= 0:
        raise InputError("no unmatched tokens")
    rows = []
    for token, count in matched.items():
        if count < min_count:
            continue
        other = unmatched.get(token, 0)
        rows.append(
            CollocationStats(
                token=token,
                count_matched=count,
                count_unmatched=other,
                n_matched=n_matched,
                n_unmatched=n_unmatched,
                t=tscore(count, other, n_matched, n_unmatched),
            )
        )
    rows.sort(key=lambda s: (-s.t, -s.count_matched, s.token))
    return rows[:top_k]


@dataclass(frozen=True)
class ExpansionRound:
    candidates: tuple


@dataclass(frozen=True)
class ExpansionReport:
    query_name: str
    rounds: tuple

    def to_dict(self) -> dict:
        rounds = [[asdict(stat) for stat in rnd.candidates] for rnd in self.rounds]
        return {"query": self.query_name, "rounds": rounds}


def expand_query(
    query: TopicQuery,
    msgs: Iterable[Message],
    rounds: int = 1,
    top_k: int = 20,
    min_count: int = 5,
) -> ExpansionReport:
    """Propose new query terms; a human decides what to add.

    Streams the corpus once through the query, counting the raw tokens of
    the matched and unmatched sides, ranks candidate tokens by t-score and
    drops terms the query already contains. Memory follows the vocabulary,
    not the corpus. The query itself is never mutated, so every one of the
    ``rounds`` reports the same candidates until a human edits the query
    between runs; the corpus is read and ranked once.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    known = set(query.keywords)
    raw_counts = (Counter(), Counter())  # unmatched, matched
    for msg, hit in iter_partition(msgs, query):
        raw_counts[hit].update(msg.text.split())
    unmatched_counts, matched_counts = map(normalize_counts, raw_counts)
    # rank everything first so excluded terms still count in the totals
    ranked = tscore_rank(
        matched_counts, unmatched_counts,
        min_count=min_count, top_k=max(top_k, len(matched_counts)),
    )
    candidates = tuple(s for s in ranked if s.token not in known)[:top_k]
    return ExpansionReport(query_name=query.name,
                           rounds=(ExpansionRound(candidates=candidates),) * rounds)
