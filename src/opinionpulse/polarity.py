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
import unicodedata
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import Message, parse_timestamp
from .exceptions import InputError
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
    """Immutable term->score and emoji->score maps, scores in [-1, 1]."""

    name: str
    words: dict
    emoji: dict

    @property
    def entry_count(self) -> int:
        return len(self.words) + len(self.emoji)


@dataclass(frozen=True)
class PolarityScore:
    """Mean lexicon score of one text; ``is_zero`` marks no-signal texts."""

    value: float
    hits: int

    @property
    def is_zero(self) -> bool:
        return self.hits == 0 or self.value == 0.0


def load_lexicon(path) -> PolarityLexicon:
    """Load a TSV lexicon (term<TAB>score, UTF-8, # comments).

    Word terms are lowercased; emoji terms are kept verbatim. Scores
    outside [-1, 1] and duplicate terms fail with the line number.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"lexicon file not found: {path}")
    words: dict = {}
    emoji: dict = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{path.name}: expected term<TAB>score, line {lineno}")
            term, raw_score = parts[0], parts[1].strip()
            try:
                score = float(raw_score)
            except ValueError:
                raise InputError(f"{path.name}: bad score {raw_score!r}, line {lineno}") from None
            if not -1.0 <= score <= 1.0:
                raise InputError(f"{path.name}: score out of range, line {lineno}")
            if _is_emoji_term(term):
                if term in emoji:
                    raise InputError(f"{path.name}: duplicate term {term!r}, line {lineno}")
                emoji[term] = score
            else:
                term = term.lower()
                if term in words:
                    raise InputError(f"{path.name}: duplicate term {term!r}, line {lineno}")
                words[term] = score
    logger.info("loaded lexicon %s: %d words, %d emoji", path.name, len(words), len(emoji))
    return PolarityLexicon(name=path.stem, words=words, emoji=emoji)


def toy_lexicon_path() -> Path:
    """The small lexicon shipped with the package (tests, demos)."""
    return Path(str(resources.files("opinionpulse").joinpath("data/toy_lexicon_nl.tsv")))


def score(lexicon: PolarityLexicon, text: str) -> PolarityScore:
    """Score one text: mean over word-token hits and emoji occurrences.

    Repeated tokens count once per occurrence. Bag-of-words: token order
    never matters.
    """
    total = 0.0
    hits = 0
    for token in tokenize(text):
        value = lexicon.words.get(token)
        if value is not None:
            total += value
            hits += 1
    for symbol, value in lexicon.emoji.items():
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


class ScoredStream:
    """Iterator of (Message, PolarityScore) with a live summary."""

    def __init__(self, iterator: Iterator, summary: ScoreSummary):
        self._iterator = iterator
        self.summary = summary

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._iterator)


def score_stream(lexicon: PolarityLexicon, msgs: Iterable[Message]) -> ScoredStream:
    """Score messages one by one, keeping a running summary."""
    summary = ScoreSummary()

    def generate():
        for msg in msgs:
            polarity = score(lexicon, msg.text)
            summary.add(polarity)
            yield msg, polarity

    return ScoredStream(generate(), summary)


def write_scored_csv(scored: Iterable, handle) -> None:
    """Write (Message, PolarityScore) pairs as rows; repr() keeps every float bit."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(SCORED_CSV_HEADER)
    for msg, polarity in scored:
        writer.writerow([msg.id, msg.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                         repr(polarity.value), polarity.hits])


def read_scored_csv(path) -> Iterator:
    """Replay a scored CSV as (timestamp, value) pairs."""
    name = Path(path).name
    with open(path, encoding="utf-8", newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not any(cell.strip() for cell in row):
                continue
            if lineno == 1 and tuple(c.strip().lower() for c in row) == SCORED_CSV_HEADER:
                continue
            if len(row) != 4:
                raise InputError(f"{name}: expected id,timestamp,value,hits, line {lineno}")
            try:
                yield parse_timestamp(row[1]), float(row[2])
            except ValueError as exc:
                raise InputError(f"{name}: {exc}, line {lineno}") from None
