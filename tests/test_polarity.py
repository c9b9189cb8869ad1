"""Lexicon loading and mean-over-hits polarity scoring."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_messages, msg
from opinionpulse.exceptions import InputError
from opinionpulse.polarity import (
    PolarityLexicon,
    PolarityScore,
    load_lexicon,
    read_scored_csv,
    score,
    score_stream,
    toy_lexicon_path,
    write_scored_csv,
)
from opinionpulse.tokenization import tokenize

TOY = load_lexicon(toy_lexicon_path())


def tiny(tmp_path, body):
    path = tmp_path / "lex.tsv"
    path.write_text(body, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_toy_lexicon_shape(self):
        assert len(TOY.words) + len(TOY.emoji) == 60
        assert len(TOY.words) == 50
        assert len(TOY.emoji) == 10
        assert TOY.words["goed"] == 0.6
        assert TOY.words["slecht"] == -0.7
        assert TOY.emoji["😀"] == 0.8

    def test_two_line_file(self, tmp_path):
        lex = load_lexicon(tiny(tmp_path, "goed\t0.6\nslecht\t-0.7\n"))
        assert lex.words == {"goed": 0.6, "slecht": -0.7}
        assert lex.emoji == {}
        assert lex.name == "lex"

    def test_terms_lowercased(self, tmp_path):
        lex = load_lexicon(tiny(tmp_path, "GOED\t0.5\n"))
        assert lex.words == {"goed": 0.5}

    def test_comments_and_blanks_skipped(self, tmp_path):
        lex = load_lexicon(tiny(tmp_path, "# kop\n\ngoed\t0.6\n"))
        assert len(lex.words) + len(lex.emoji) == 1

    def test_hashtag_term_is_not_a_comment(self, tmp_path):
        # a comment is a line starting with "#" that holds no tab
        lex = load_lexicon(tiny(tmp_path, "#lockdown\t-0.4\n# kop\ngoed\t0.6\n"))
        assert lex.words == {"#lockdown": -0.4, "goed": 0.6}
        result = score(lex, "Weer een #lockdown, goed zo")
        assert (result.hits, result.value) == (2, pytest.approx(0.1))

    def test_score_out_of_range(self, tmp_path):
        with pytest.raises(InputError, match=r"score out of range, line 1"):
            load_lexicon(tiny(tmp_path, "x\t1.5\n"))

    def test_bad_score_text(self, tmp_path):
        with pytest.raises(InputError, match=r"bad score 'veel', line 2"):
            load_lexicon(tiny(tmp_path, "goed\t0.6\nx\tveel\n"))

    def test_missing_tab(self, tmp_path):
        with pytest.raises(InputError, match=r"term<TAB>score, line 1"):
            load_lexicon(tiny(tmp_path, "goed 0.6\n"))

    def test_duplicate_term(self, tmp_path):
        with pytest.raises(InputError, match=r"duplicate term 'goed', line 3"):
            load_lexicon(tiny(tmp_path, "goed\t0.6\nslecht\t-0.7\nGOED\t0.1\n"))

    @pytest.mark.parametrize("line", ["goed \t0.8", " goed\t0.8", "\t0.5"])
    def test_term_that_can_never_match(self, tmp_path, line):
        with pytest.raises(InputError, match=r"lex\.tsv: bad term .*: empty or padded with "
                                             r"whitespace, line 2"):
            load_lexicon(tiny(tmp_path, f"slecht\t-0.7\n{line}\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="lexicon file not found"):
            load_lexicon(tmp_path / "nope.tsv")


class TestScore:
    def test_mixed_pair_averages(self):
        result = score(TOY, "goed maar slecht")
        assert result.hits == 2
        assert result.value == pytest.approx(-0.05, abs=1e-12)
        assert not result.is_zero

    def test_no_hits_is_zero(self):
        result = score(TOY, "qwzx plof")
        assert result.value == 0.0
        assert result.hits == 0
        assert result.is_zero

    def test_repeated_token_counts_per_occurrence(self):
        result = score(TOY, "goed goed")
        assert (result.hits, result.value) == (2, 0.6)

    def test_case_insensitive_words(self):
        assert score(TOY, "GOED").value == 0.6

    def test_emoji_matched_in_raw_text(self):
        # emoji glued to a word still counts
        result = score(TOY, "hoera😀")
        assert result.hits == 1
        assert result.value == 0.8

    def test_emoji_occurrences_each_count(self):
        result = score(TOY, "😀😀 😢")
        assert result.hits == 3
        assert result.value == pytest.approx((0.8 + 0.8 - 0.6) / 3, abs=1e-12)

    def test_balanced_text_is_zero_with_hits(self):
        lex = PolarityLexicon(name="sym", words={"op": 0.5, "neer": -0.5}, emoji={})
        result = score(lex, "op en neer")
        assert result.hits == 2
        assert result.value == 0.0
        assert result.is_zero

    def test_value_bounded_by_lexicon_range(self):
        rng = random.Random(3)
        vocab = list(TOY.words)
        for _ in range(100):
            text = " ".join(rng.choices(vocab + ["ruis", "meer"], k=rng.randint(1, 12)))
            value = score(TOY, text).value
            assert -1.0 <= value <= 1.0

    @given(st.lists(st.sampled_from(["goed", "slecht", "blij", "ruis"]), min_size=1, max_size=10))
    def test_order_never_matters(self, tokens):
        forward = score(TOY, " ".join(tokens))
        backward = score(TOY, " ".join(reversed(tokens)))
        assert forward.hits == backward.hits
        assert forward.value == pytest.approx(backward.value, abs=1e-12)

    @given(st.sampled_from(sorted(TOY.emoji)))
    def test_single_emoji_scores_its_own_value(self, symbol):
        result = score(TOY, symbol)
        assert result.hits >= 1
        assert result.value == pytest.approx(TOY.emoji[symbol], abs=1e-12)


def full_scan_score(lexicon, text):
    """The scorer without the emoji index: every lexicon emoji counted on every text."""
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


# emoji that start with the same code point: a skin tone, a ZWJ family, a variation selector
SHARED = PolarityLexicon(name="shared", words={"goed": 0.6}, emoji={
    "👍🏽": 0.7, "👍": 0.5, "👨": 0.1, "👨\u200d👩\u200d👧": 0.9, "👩": 0.2,
    "❤": 0.8, "❤️": 0.6, "😀": 0.3,
})
# code points the generated lexicons and texts are drawn from, so emoji share prefixes
EMOJI_PARTS = "👍👨👩❤😀\U0001F3FD\u200d\ufe0f"


class TestEmojiIndex:
    def test_toy_lexicon_matches_full_scan(self):
        rng = random.Random(11)
        pieces = sorted(TOY.emoji) + list(TOY.words)[:10] + ["ruis", "x", "😀😀", "👍🏽"]
        for _ in range(500):
            text = "".join(rng.choice(pieces) + rng.choice(["", " "])
                           for _ in range(rng.randint(0, 12)))
            assert score(TOY, text) == full_scan_score(TOY, text)

    @pytest.mark.parametrize("text, expected", [
        ("👍🏽", PolarityScore(value=(0.7 + 0.5) / 2, hits=2)),
        ("👨\u200d👩\u200d👧", PolarityScore(value=(0.1 + 0.9 + 0.2) / 3, hits=3)),
        ("❤️❤", PolarityScore(value=(0.8 * 2 + 0.6) / 3, hits=3)),
        ("goed 👍 😀", PolarityScore(value=(0.6 + 0.5 + 0.3) / 3, hits=3)),
        ("geen emoji", PolarityScore(value=0.0, hits=0)),
    ])
    def test_shared_first_code_point_counts_overlaps(self, text, expected):
        # an emoji inside a longer one counts too, as str.count finds it
        assert score(SHARED, text) == expected
        assert score(SHARED, text) == full_scan_score(SHARED, text)

    @given(
        st.dictionaries(st.text(alphabet=EMOJI_PARTS, min_size=1, max_size=4),
                        st.floats(min_value=-1.0, max_value=1.0), max_size=12),
        st.text(alphabet=EMOJI_PARTS + "ab ", max_size=30),
    )
    def test_generated_lexicons_match_full_scan(self, emoji, text):
        lexicon = PolarityLexicon(name="gen", words={"a": 0.25}, emoji=emoji)
        assert score(lexicon, text) == full_scan_score(lexicon, text)

    def test_index_is_not_part_of_equality_or_repr(self):
        one = PolarityLexicon(name="x", words={}, emoji={"😀": 0.3})
        assert one == PolarityLexicon(name="x", words={}, emoji={"😀": 0.3})
        assert repr(one) == "PolarityLexicon(name='x', words={}, emoji={'😀': 0.3})"

    def test_empty_emoji_term_rejected(self):
        with pytest.raises(ValueError, match="empty emoji term"):
            PolarityLexicon(name="x", words={}, emoji={"": 0.3})


class TestScoreStream:
    def test_summary_over_three_messages(self):
        msgs = make_messages(["goed", "slecht", "qwzx"])
        stream = score_stream(TOY, msgs)
        rows = list(stream)
        assert len(rows) == 3
        summary = stream.summary
        assert summary.n == 3
        assert summary.nonzero == 2
        assert summary.mean == pytest.approx((0.6 - 0.7) / 3, abs=1e-12)
        assert summary.mean_nonzero == pytest.approx(-0.05, abs=1e-12)
        assert summary.nonzero_fraction == pytest.approx(2 / 3, abs=1e-12)

    def test_two_of_three_nonzero(self):
        msgs = make_messages(["blij 😀", "niets hier", "slecht"])
        stream = score_stream(TOY, msgs)
        values = [polarity.value for _, polarity in stream]
        assert sum(1 for v in values if v != 0.0) == 2
        assert stream.summary.nonzero == 2

    def test_empty_stream(self):
        stream = score_stream(TOY, [])
        assert list(stream) == []
        assert stream.summary.to_dict() == {
            "n": 0, "mean": 0.0, "mean_nonzero": 0.0, "nonzero_fraction": 0.0,
        }

    def test_constant_stream(self):
        msgs = make_messages(["goed"] * 5)
        stream = score_stream(TOY, msgs)
        for _, polarity in stream:
            assert polarity.value == 0.6
        assert stream.summary.mean == pytest.approx(0.6, abs=1e-12)
        assert stream.summary.nonzero_fraction == 1.0

    def test_messages_pass_through_unchanged(self):
        msgs = make_messages(["goed", "slecht"])
        stream = score_stream(TOY, msgs)
        assert [m.id for m, _ in stream] == [m.id for m in msgs]

    def test_summary_matches_per_message_recomputation(self):
        texts = ["goed slecht", "blij blij", "qwzx", "😀 boos", "mooi"]
        msgs = make_messages(texts)
        stream = score_stream(TOY, msgs)
        values = [polarity.value for _, polarity in stream]
        assert stream.summary.mean == pytest.approx(math.fsum(values) / len(values), abs=1e-12)
        nonzero = [v for v in values if v != 0.0]
        assert stream.summary.mean_nonzero == pytest.approx(
            math.fsum(nonzero) / len(nonzero), abs=1e-12
        )


class TestScoredCsv:
    def test_round_trip_keeps_float_bits(self, tmp_path):
        scored = [
            (msg("x", id="a", ts="2020-03-01T10:00:00Z"), PolarityScore(value=0.1 + 0.2, hits=3)),
            (msg("x", id="b,\"c\"", ts="2020-03-01T23:59:59Z"), PolarityScore(value=-1 / 3, hits=2)),
            (msg("x", id="d", ts="2020-03-02T00:00:00Z"), PolarityScore(value=5e-17, hits=1)),
            (msg("x", id="e", ts="2020-03-02T01:00:00Z"), PolarityScore(value=0.0, hits=0)),
        ]
        path = tmp_path / "scored.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_scored_csv(scored, handle)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "id,timestamp,value,hits"
        replayed = list(read_scored_csv(path))
        assert [ts for ts, _ in replayed] == [m.timestamp for m, _ in scored]
        assert [repr(value) for _, value in replayed] == [repr(s.value) for _, s in scored]

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("id,timestamp,value,hits\na,2020-03-01T10:00:00Z,0.5\n", encoding="utf-8")
        with pytest.raises(InputError, match=r"scored.csv: expected id,timestamp,value,hits, line 2"):
            list(read_scored_csv(path))

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        path = tmp_path / "scored.csv"
        path.write_text(f"id,timestamp,value,hits\na,2020-03-01T10:00:00Z,{value},1\n",
                        encoding="utf-8")
        with pytest.raises(InputError,
                           match=rf"scored.csv: value '{value}' is not finite, line 2"):
            list(read_scored_csv(path))

    def test_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("\n\nid,timestamp,value,hits\na,2020-03-01T10:00:00Z,0.5,1\n",
                        encoding="utf-8")
        assert [value for _, value in read_scored_csv(path)] == [0.5]
