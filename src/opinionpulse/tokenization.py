"""Shared tokenizer for topic matching, collocation counting and polarity scoring.

Rules: lowercase, split on Unicode whitespace, strip leading/trailing
punctuation except ``#`` and ``@`` (hashtags and mentions survive), keep
emoji as tokens. No stemming, no multi-word normalization.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from functools import lru_cache
from typing import Iterable

_KEEP = frozenset("#@")
# distinct raw tokens whose normalised form tokenize keeps (least recently used go first)
NORMALIZE_CACHE_SIZE = 1 << 16
# longer raw tokens (URLs, blobs) skip the memo, so its memory is bounded in characters too
NORMALIZE_CACHE_MAX_LEN = 32


def _strippable(ch: str) -> bool:
    if ch in _KEEP:
        return False
    return unicodedata.category(ch).startswith("P")


def _strip_punct(token: str) -> str:
    # no code point is both alphanumeric and punctuation, so most words end here
    if token and token[0].isalnum() and token[-1].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and _strippable(token[start]):
        start += 1
    while end > start and _strippable(token[end - 1]):
        end -= 1
    return token[start:end]


@lru_cache(maxsize=NORMALIZE_CACHE_SIZE)
def _normalize(raw: str) -> str:
    return _strip_punct(raw).lower()


def tokenize(text: str) -> list[str]:
    """Split text into lowercase tokens.

    ``str.split()`` handles Unicode whitespace; emoji are symbol
    characters, not punctuation, so they are never stripped. The
    normalised forms of the last ``NORMALIZE_CACHE_SIZE`` distinct raw
    tokens of at most ``NORMALIZE_CACHE_MAX_LEN`` characters are memoised,
    so a repeated word is stripped and lowercased once.
    """
    return [token for raw in text.split()
            if (token := _normalize(raw) if len(raw) <= NORMALIZE_CACHE_MAX_LEN
                else _strip_punct(raw).lower())]


def count_tokens(texts: Iterable[str]) -> Counter:
    """Aggregate token counts over many texts (order-independent).

    The same counts as ``tokenize`` gives, but each distinct raw token is
    normalised once, after all texts are split and counted, and the memo
    of ``tokenize`` is left alone.
    """
    raw_counts: Counter = Counter()
    for text in texts:
        raw_counts.update(text.split())
    counts: Counter = Counter()
    for raw, n in raw_counts.items():
        if token := _strip_punct(raw).lower():
            counts[token] += n
    return counts
