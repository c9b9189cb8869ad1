"""Tokenizer behavior shared by filtering, scoring and the classifier."""

import sys
import unicodedata
from collections import Counter
from itertools import chain

from hypothesis import example, given
from hypothesis import strategies as st

from opinionpulse.tokenization import _LATIN1_PUNCT, _strippable, count_tokens, tokenize


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


def strip_then_lower(text):
    """The rule token by token, from unicodedata alone: strip edge punctuation
    other than # and @, lowercase, drop empties."""
    def punct(ch):
        return ch not in "#@" and unicodedata.category(ch).startswith("P")

    tokens = []
    for raw in text.split():
        start, end = 0, len(raw)
        while start < end and punct(raw[start]):
            start += 1
        while end > start and punct(raw[end - 1]):
            end -= 1
        if token := raw[start:end].lower():
            tokens.append(token)
    return tokens


# characters where lowercasing the whole text first could differ: final and
# medial sigma, a capital whose lowercase is two code points, a combining
# mark, punctuation that is case-ignorable, and a Unicode space
CASE_EDGES = "\u03a3\u03c3\u03c2\u0130\u0307\u2019\u00b7:\u3000"


@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(CASE_EDGES),
                                  st.sampled_from("#@.,!?()'-…¿«»“”、。 \tAaß"))))
@example("ΟΔΟΣ. «ΟΔΟΣ» ΟΔΟΣ.ΟΔΟΣ .Σ Α’Σ’ Σ:Α ΑΣ\u3000Β")
@example("İ. (İ) İstanbul: ·İ·")
def test_tokenize_matches_strip_then_lower(text):
    assert tokenize(text) == strip_then_lower(text)


def test_lowercasing_first_keeps_the_rule_next_to_sigma():
    # every code point that could be stripped, skipped as case-ignorable or
    # split on, at a token edge next to a capital sigma
    kinds = ("Cc", "Cf", "Lm", "Sk")
    edges = [chr(cp) for cp in range(sys.maxunicode + 1)
             if unicodedata.category(chr(cp))[0] in "PMZ" or unicodedata.category(chr(cp)) in kinds]
    text = " ".join(f"ΑΣ{c} {c}ΣΑ Α{c}Σ{c} ΑΣ{c}{c}Α .Σ{c}" for c in edges)
    assert tokenize(text) == strip_then_lower(text)


TOKEN_TEXT = st.text(alphabet=st.one_of(st.characters(), st.sampled_from("#@.,!?()'-…¿ \t😷👍🏽")))


@given(st.lists(TOKEN_TEXT, max_size=8))
def test_count_tokens_counts_what_tokenize_gives(texts):
    assert count_tokens(texts) == Counter(chain.from_iterable(map(tokenize, texts)))


def test_no_code_point_is_alphanumeric_and_punctuation():
    # _strip_punct returns a token whose two ends are alphanumeric as it is
    both = [cp for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")]
    assert both == []


def test_latin1_punctuation_is_what_strippable_accepts():
    assert _LATIN1_PUNCT == "".join(ch for ch in map(chr, range(256)) if _strippable(ch))
