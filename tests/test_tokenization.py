"""Tokenizer behavior shared by filtering, scoring and the classifier."""

import sys
import unicodedata
from collections import Counter
from itertools import chain

from hypothesis import given
from hypothesis import strategies as st

from opinionpulse.tokenization import (NORMALIZE_CACHE_MAX_LEN, NORMALIZE_CACHE_SIZE, _normalize,
                                       _strip_punct, count_tokens, tokenize)


def test_lowercases_and_splits_on_whitespace():
    assert tokenize("Corona Virus\tNieuws") == ["corona", "virus", "nieuws"]


def test_strips_edge_punctuation_but_keeps_hash_and_at():
    assert tokenize("(goed!) #blijfthuis @rivm...") == ["goed", "#blijfthuis", "@rivm"]


def test_inner_punctuation_is_kept():
    # "1,5" must survive as one token for query expansion to find it
    assert tokenize("de 1,5 meter-regel") == ["de", "1,5", "meter-regel"]


def test_emoji_are_tokens():
    assert tokenize("mooi \U0001F60A") == ["mooi", "\U0001F60A"]


def test_pure_punctuation_tokens_vanish():
    assert tokenize("goed -- ?! slecht") == ["goed", "slecht"]


def test_empty_and_whitespace_only():
    assert tokenize("") == []
    assert tokenize("  \t\n ") == []


def test_count_tokens_merges_texts():
    counts = count_tokens(["goed goed slecht", "goed"])
    assert counts == Counter({"goed": 3, "slecht": 1})


@given(st.text())
def test_tokens_never_contain_whitespace_or_uppercase(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert not any(ch.isspace() for ch in token)
        assert token


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)))
def test_tokenize_ignores_ascii_case(text):
    assert tokenize(text.upper()) == tokenize(text.lower())


@given(st.lists(st.text(alphabet="abc#@1,", min_size=1, max_size=6), max_size=8))
def test_idempotent_on_own_output(words):
    tokens = tokenize(" ".join(words))
    assert tokenize(" ".join(tokens)) == tokens


def uncached_tokenize(text):
    """The rule without the memo: strip edge punctuation, lowercase, drop empties."""
    tokens = []
    for raw in text.split():
        token = _strip_punct(raw).lower()
        if token:
            tokens.append(token)
    return tokens


@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from("#@.,!?()'-…¿ \t"))))
def test_memo_keeps_the_rule(text):
    assert tokenize(text) == uncached_tokenize(text)
    # a second pass is served from the memo
    assert tokenize(text) == uncached_tokenize(text)


def test_memo_stays_bounded():
    words = [f"(Woord{i}!)" for i in range(NORMALIZE_CACHE_SIZE + 100)]
    for start in range(0, len(words), 1000):
        tokenize(" ".join(words[start:start + 1000]))
    assert _normalize.cache_info().currsize <= NORMALIZE_CACHE_SIZE
    # an evicted token is normalised again, the same way
    assert tokenize(words[0]) == ["woord0"]


def test_long_tokens_skip_the_memo():
    _normalize.cache_clear()
    tokenize("kort")
    pad = "x" * NORMALIZE_CACHE_MAX_LEN
    words = [f"({pad}{i}!)" for i in range(NORMALIZE_CACHE_SIZE + 100)]
    for start in range(0, len(words), 1000):
        assert tokenize(" ".join(words[start:start + 1000])) == [
            f"{pad}{i}" for i in range(start, min(start + 1000, len(words)))]
    assert _normalize.cache_info().currsize == 1


def test_memo_length_bound_keeps_the_rule():
    for size in (NORMALIZE_CACHE_MAX_LEN - 1, NORMALIZE_CACHE_MAX_LEN,
                 NORMALIZE_CACHE_MAX_LEN + 1):
        for raw in ("«" + "É" * (size - 2) + "»", "#" + "Ä" * (size - 2) + ".", "." * size):
            assert len(raw) == size
            text = f"Goed {raw} zo"
            assert tokenize(text) == uncached_tokenize(text)
            assert tokenize(text) == uncached_tokenize(text)


TOKEN_TEXT = st.text(alphabet=st.one_of(st.characters(), st.sampled_from("#@.,!?()'-…¿ \t😷👍🏽")))


@given(st.lists(TOKEN_TEXT, max_size=8))
def test_count_tokens_counts_what_tokenize_gives(texts):
    assert count_tokens(texts) == Counter(chain.from_iterable(map(tokenize, texts)))


def test_no_code_point_is_alphanumeric_and_punctuation():
    # _strip_punct returns a token whose two ends are alphanumeric as it is
    both = [cp for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")]
    assert both == []
