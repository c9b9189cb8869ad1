"""Lexicon-based polarity scoring of messages.

A message score is the unweighted arithmetic mean over all lexicon hits:
word tokens found in the word map plus every occurrence of a lexicon
emoji anywhere in the raw text (emoji often stick to words without
whitespace, so they are matched on the raw string, not on tokens). No
hits means score 0. No negation or intensifier handling by design; the
rule is simple enough to audit.
"""

from __future__ import annotations

import csv
import logging
import math
import unicodedata
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .constants import TOY_LEXICON
from .corpus import Message, MessageStream, format_timestamp, parse_timestamp
from .exceptions import input_lines
from .tokenization import tokenize

logger = logging.getLogger("opinionpulse.polarity")

SCORED_CSV_HEADER = ("id", "timestamp", "value", "hits")


def _is_emoji_term(term: str) -> bool:
    """Heuristic split between the word map and the emoji map.

    A term counts as emoji when it has no letters or digits and at least
    one symbol character (So covers emoji; Sk covers modifier marks).
    """
    has_symbol = False
    for ch in term:
        cat = unicodedata.category(ch)
        if cat.startswith("L") or cat.startswith("N"):
            return False
        if cat in ("So", "Sk") or ch == "‍":
            has_symbol = True
    return has_symbol


@dataclass(frozen=True)
class PolarityLexicon:
    """Immutable term->score and emoji->score maps, scores in [-1, 1].

    The emoji are also indexed by their first code point, so ``score``
    counts only those that can occur in a text. The index is built once,
    here; the maps must not be changed after construction.
    """

    name: str
    words: dict
    emoji: dict
    # first code point -> [(lexicon index, emoji, score)], in lexicon order
    _emoji_by_first: dict = field(init=False, compare=False, repr=False)
    _emoji_firsts: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        by_first: dict = {}
        for index, (symbol, value) in enumerate(self.emoji.items()):
            if not symbol:
                raise ValueError("empty emoji term")
            by_first.setdefault(symbol[0], []).append((index, symbol, value))
        object.__setattr__(self, "_emoji_by_first", by_first)
        object.__setattr__(self, "_emoji_firsts", frozenset(by_first))


@dataclass(frozen=True)
class PolarityScore:
    """Mean lexicon score of one text; ``is_zero`` marks no-signal texts."""

    value: float
    hits: int

    @property
    def is_zero(self) -> bool:
        return self.hits == 0 or self.value == 0.0


def load_lexicon(path) -> PolarityLexicon:
    """Load a TSV lexicon (term<TAB>score, UTF-8, tab-free # comments).

    Word terms are lowercased, emoji terms kept verbatim. A score outside
    [-1, 1], or a duplicate, empty or whitespace-padded term, fails with its line number.
    """
    path = Path(path)
    words: dict = {}
    emoji: dict = {}
    with input_lines(path, "lexicon") as lines:
        for line in lines:
            line = line.rstrip("\r\n")
            # a comment holds no tab, so a hashtag term such as "#lockdown<TAB>-0.4" loads
            if not line.strip() or (line.lstrip().startswith("#") and "\t" not in line):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError("expected term<TAB>score")
            term, raw_score = parts[0], parts[1].strip()
            if not term or term != term.strip():  # such a term never equals a token
                raise ValueError(f"bad term {term!r}: empty or padded with whitespace")
            try:
                score = float(raw_score)
            except ValueError:
                raise ValueError(f"bad score {raw_score!r}") from None
            if not -1.0 <= score <= 1.0:
                raise ValueError("score out of range")
            table, term = (emoji, term) if _is_emoji_term(term) else (words, term.lower())
            if term in table:
                raise ValueError(f"duplicate term {term!r}")
            table[term] = score
    logger.info("loaded lexicon %s: %d words, %d emoji", path.name, len(words), len(emoji))
    return PolarityLexicon(name=path.stem, words=words, emoji=emoji)


def toy_lexicon_path() -> Path:
    """The small lexicon shipped with the package (tests, demos)."""
    return TOY_LEXICON


def score(lexicon: PolarityLexicon, text: str) -> PolarityScore:
    """Score one text: mean over word-token hits and emoji occurrences.

    Repeated tokens count once per occurrence. Bag-of-words: token order
    never matters. Each lexicon emoji counts every ``str.count``
    occurrence, so one inside a longer emoji (👍 in 👍🏽) counts too;
    only emoji whose first code point occurs in the text are counted.
    """
    total = 0.0
    hits = 0
    for token in tokenize(text):
        value = lexicon.words.get(token)
        if value is not None:
            total += value
            hits += 1
    firsts = lexicon._emoji_firsts.intersection(text)
    if not firsts:
        candidates = ()
    elif len(firsts) == 1:
        candidates = lexicon._emoji_by_first[next(iter(firsts))]
    else:
        # lexicon order, so the floats are summed as a full scan would
        candidates = sorted(chain.from_iterable(lexicon._emoji_by_first[ch] for ch in firsts))
    for _, symbol, value in candidates:
        occurrences = text.count(symbol)
        if occurrences:
            total += value * occurrences
            hits += occurrences
    if hits == 0:
        return PolarityScore(value=0.0, hits=0)
    return PolarityScore(value=total / hits, hits=hits)


@dataclass
class ScoreSummary:
    """Running aggregate over a scored stream.

    ``mean`` averages over **all** messages (zeros included);
    ``mean_nonzero`` excludes zero-score messages, so both readings of a
    daily average are available.
    """

    n: int = 0
    nonzero: int = 0
    total: float = 0.0
    total_nonzero: float = 0.0

    def add(self, polarity: PolarityScore) -> None:
        self.n += 1
        self.total += polarity.value
        if not polarity.is_zero:
            self.nonzero += 1
            self.total_nonzero += polarity.value

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    @property
    def mean_nonzero(self) -> float:
        return self.total_nonzero / self.nonzero if self.nonzero else 0.0

    @property
    def nonzero_fraction(self) -> float:
        return self.nonzero / self.n if self.n else 0.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "mean_nonzero": self.mean_nonzero,
            "nonzero_fraction": self.nonzero_fraction,
        }


def score_stream(lexicon: PolarityLexicon, msgs: Iterable[Message]) -> MessageStream:
    """Score messages one by one; the stream's ``stats`` is a running ScoreSummary."""
    summary = ScoreSummary()

    def generate():
        for msg in msgs:
            polarity = score(lexicon, msg.text)
            summary.add(polarity)
            yield msg, polarity

    return MessageStream(generate(), summary)


def write_scored_csv(scored: Iterable, handle) -> None:
    """Write (Message, PolarityScore) pairs as rows; repr() keeps every float bit."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(SCORED_CSV_HEADER)
    for msg, polarity in scored:
        writer.writerow([msg.id, format_timestamp(msg.timestamp), repr(polarity.value),
                         polarity.hits])


def read_scored_csv(path) -> Iterator:
    """Replay a scored CSV as (timestamp, value) pairs."""
    first = True
    with input_lines(path, "scored CSV") as lines:
        for row in csv.reader(lines):
            if not "".join(row).strip():
                continue
            if first:
                first = False
                if tuple(c.strip().lower() for c in row) == SCORED_CSV_HEADER:
                    continue
            if len(row) != 4:
                raise ValueError("expected id,timestamp,value,hits")
            ts, value = parse_timestamp(row[1]), float(row[2])
            if not math.isfinite(value):
                raise ValueError(f"value {row[2]!r} is not finite")
            yield ts, value
