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

TOY = load_lexicon(toy_lexicon_path())


def tiny(tmp_path, body):
    path = tmp_path / "lex.tsv"
    path.write_text(body, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_toy_lexicon_shape(self):
        assert TOY.entry_count == 60
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
        assert lex.entry_count == 1

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

    def test_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "scored.csv"
        path.write_text("\n\nid,timestamp,value,hits\na,2020-03-01T10:00:00Z,0.5,1\n",
                        encoding="utf-8")
        assert [value for _, value in read_scored_csv(path)] == [0.5]
