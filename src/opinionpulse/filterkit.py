"""Topic selection: keyword sets, regex queries and t-score query expansion.

Keyword filtering is case-insensitive substring matching, so a keyword
like "corona" also selects longer words such as "coronavirus". Query
expansion compares token frequencies between the matched and unmatched
sides of a corpus with a two-sample t-score and surfaces candidate terms
for a human to judge; it never grows the query on its own.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import Message
from .exceptions import InputError
from .tokenization import count_tokens

COMBINE_MODES = ("keywords_only", "regex_only", "keywords_or_regex")


@dataclass(frozen=True)
class TopicQuery:
    """A named on-topic predicate built from keywords and/or a regex.

    Keywords are stored lowercase and matched as case-insensitive
    substrings (no word boundaries). The regex is compiled once at
    construction and searched against the case-folded text, unanchored,
    with ``.`` not matching newlines.
    """

    name: str
    keywords: frozenset = frozenset()
    regex: str | None = None
    combine: str = "keywords_only"
    _pattern: re.Pattern | None = field(init=False, repr=False, compare=False, default=None)
    _folded: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        keywords = frozenset(k.lower() for k in self.keywords)
        object.__setattr__(self, "keywords", keywords)
        if self.combine not in COMBINE_MODES:
            raise InputError(f"unknown combine mode {self.combine!r}")
        if not keywords and not self.regex:
            raise InputError(f"query {self.name!r} has neither keywords nor regex")
        if self.combine != "regex_only" and not keywords:
            raise InputError(f"query {self.name!r} needs keywords for mode {self.combine}")
        if self.combine != "keywords_only" and not self.regex:
            raise InputError(f"query {self.name!r} needs a regex for mode {self.combine}")
        if self.regex is not None:
            try:
                pattern = re.compile(self.regex)
            except re.error as exc:
                raise InputError(f"query {self.name!r} has invalid regex: {exc}") from None
            object.__setattr__(self, "_pattern", pattern)
        object.__setattr__(self, "_folded", tuple(k.casefold() for k in keywords))

    def matches(self, text: str) -> bool:
        if self.combine == "keywords_only":
            return keyword_match(self, text)
        if self.combine == "regex_only":
            return regex_match(self, text)
        return keyword_match(self, text) or regex_match(self, text)


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
    """Read a query from JSON {name, keywords, regex, combine}.

    ``combine`` defaults to whatever the populated fields allow.
    """
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read query {path}: {exc}") from None
    keywords = record.get("keywords") or []
    regex = record.get("regex")
    combine = record.get("combine")
    if combine is None:
        if keywords and regex:
            combine = "keywords_or_regex"
        elif regex:
            combine = "regex_only"
        else:
            combine = "keywords_only"
    return TopicQuery(
        name=record.get("name", path.stem),
        keywords=frozenset(keywords),
        regex=regex,
        combine=combine,
    )


# shipped query files, plus the query names they define as aliases
_BUILTIN_ALIASES = {
    "pandemic": "table2",
    "social-distancing": "socialdistancing",
    "social_distancing": "socialdistancing",
}


def builtin_query_path(name: str) -> Path:
    """Filesystem path of a query shipped with the package (e.g. "table2")."""
    name = _BUILTIN_ALIASES.get(name, name)
    resource = resources.files("opinionpulse").joinpath(f"data/{name}.json")
    if not resource.is_file():
        raise InputError(f"no builtin query named {name!r}")
    return Path(str(resource))


def load_builtin_query(name: str) -> TopicQuery:
    return load_query(builtin_query_path(name))


def iter_partition(msgs: Iterable[Message], query: TopicQuery) -> Iterator[tuple[Message, bool]]:
    """Single-pass streaming partition: yields (message, matched?)."""
    for msg in msgs:
        yield msg, query.matches(msg.text)


def split_corpus(msgs: Iterable[Message], query: TopicQuery) -> tuple[list[Message], list[Message]]:
    """Partition a corpus into (matched, unmatched) lists.

    Every input message lands in exactly one output; order is preserved
    on both sides. For file-to-file streaming use :func:`iter_partition`.
    """
    matched: list[Message] = []
    unmatched: list[Message] = []
    for msg, hit in iter_partition(msgs, query):
        (matched if hit else unmatched).append(msg)
    return matched, unmatched


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
    msgs: Sequence[Message],
    rounds: int = 1,
    top_k: int = 20,
    min_count: int = 5,
) -> ExpansionReport:
    """Propose new query terms per round; a human decides what to add.

    Each round splits the corpus with the current query, ranks candidate
    tokens by t-score and drops terms the query already contains. The
    query itself is never mutated, so with a stable corpus every round
    reports the same candidates until a human edits the query between
    runs.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    known = set(query.keywords)
    report_rounds = []
    for _ in range(rounds):
        matched, unmatched = split_corpus(msgs, query)
        matched_counts = count_tokens(m.text for m in matched)
        unmatched_counts = count_tokens(m.text for m in unmatched)
        # rank everything first so excluded terms still count in the totals
        ranked = tscore_rank(
            matched_counts, unmatched_counts,
            min_count=min_count, top_k=max(top_k, len(matched_counts)),
        )
        candidates = [s for s in ranked if s.token not in known][:top_k]
        report_rounds.append(ExpansionRound(candidates=tuple(candidates)))
    return ExpansionReport(query_name=query.name, rounds=tuple(report_rounds))
