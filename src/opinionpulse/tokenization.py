"""Shared tokenizer for topic matching, collocation counting and polarity scoring.

Rules: lowercase, split on Unicode whitespace, strip leading/trailing
punctuation except ``#`` and ``@`` (hashtags and mentions survive), keep
emoji as tokens. No stemming, no multi-word normalization.

``tokenize`` keeps no memo: it lowercases the whole text, then splits and
strips. That equals stripping first, as lowercasing makes no whitespace or
punctuation and its final-sigma rule stops at whitespace.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from typing import Iterable, Mapping

_KEEP = frozenset("#@")


def _strippable(ch: str) -> bool:
    return ch not in _KEEP and unicodedata.category(ch).startswith("P")


# the Latin-1 characters _strippable accepts, which str.strip removes in one
# call; written out, as computing them loads unicodedata's tables at import
_LATIN1_PUNCT = "!\"%&'()*,-./:;?[\\]_{}¡§«¶·»¿"


def _strip_punct(token: str) -> str:
    token = token.strip(_LATIN1_PUNCT)
    # no code point is both alphanumeric and punctuation, so most words end here
    if not token or token[0].isalnum() and token[-1].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and _strippable(token[start]):
        start += 1
    while end > start and _strippable(token[end - 1]):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Split text into lowercase tokens.

    ``str.split()`` handles Unicode whitespace; emoji are symbol
    characters, not punctuation, so they are never stripped. A token whose
    first and last characters are alphanumeric is kept as it is.
    """
    return [token for raw in text.lower().split()
            if (token := raw if raw[0].isalnum() and raw[-1].isalnum() else _strip_punct(raw))]


def normalize_counts(raw_counts: Mapping[str, int]) -> Counter:
    """Counts of whitespace-split raw tokens as token counts; each raw token is normalised once."""
    counts: Counter = Counter()
    for raw, n in raw_counts.items():
        if token := _strip_punct(raw).lower():
            counts[token] += n
    return counts


def count_tokens(texts: Iterable[str]) -> Counter:
    """Aggregate token counts over many texts (order-independent).

    The same counts as ``tokenize`` gives, from ``normalize_counts``.
    """
    raw_counts: Counter = Counter()
    for text in texts:
        raw_counts.update(text.split())
    return normalize_counts(raw_counts)
