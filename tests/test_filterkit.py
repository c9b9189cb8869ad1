"""Topic queries, corpus partitioning and t-score expansion."""

import json
import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_messages
from opinionpulse.constants import DATA_DIR
from opinionpulse.exceptions import InputError
from opinionpulse.filterkit import (
    TopicQuery,
    expand_query,
    iter_partition,
    keyword_match,
    load_builtin_query,
    load_query,
    regex_match,
    tscore,
    tscore_rank,
)
from opinionpulse.tokenization import count_tokens

PANDEMIC_KEYWORDS = {
    "corona", "covid", "huisarts", "mondkapje", "rivm",
    "flattenthecurve", "blijfthuis", "houvol",
}


# selected by a keyword, by a regex, and by neither
PROBES = ["corona cijfers stijgen", "de trein is vol", "mooi weer vandaag"]


def brute_tscore(count_matched, count_unmatched, n_matched, n_unmatched):
    """Independent re-derivation with exact rational intermediates."""
    p1 = Fraction(count_matched, n_matched)
    p2 = Fraction(count_unmatched, n_unmatched)
    radicand = Fraction(p1, n_matched) + Fraction(p2, n_unmatched)
    return float(p1 - p2) / math.sqrt(radicand)


class TestTopicQuery:
    def test_rejects_empty_query(self):
        with pytest.raises(InputError):
            TopicQuery(name="leeg")

    # a legacy combine field is only ever checked against the filled fields
    def test_rejects_unknown_combine(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"keywords": ["a"], "combine": "KEYWORDS_ONLY"}', encoding="utf-8")
        with pytest.raises(InputError):
            load_query(path)

    def test_rejects_mode_field_mismatch(self, tmp_path):
        path = tmp_path / "q.json"
        for document in ('{"keywords": ["a"], "combine": "regex_only"}',
                         '{"regex": "a+", "combine": "keywords_only"}'):
            path.write_text(document, encoding="utf-8")
            with pytest.raises(InputError):
                load_query(path)

    def test_bad_regex_fails_at_construction(self):
        with pytest.raises(InputError):
            TopicQuery(name="q", regex="([")

    def test_keyword_with_edge_spaces_is_kept(self):
        q = TopicQuery(name="q", keywords=frozenset({" rivm"}))
        assert q.matches("volgens het RIVM")
        assert not q.matches("rivm meldt")

    def test_keywords_stored_lowercase(self):
        q = TopicQuery(name="q", keywords=frozenset({"RIVM"}))
        assert q.keywords == frozenset({"rivm"})

    # the flag follows the pattern's literal characters, not its escapes' spelling
    @pytest.mark.parametrize("regex, flagged", [
        (r"\x41fstand", True),  # an upper-case letter written as an escape
        (r"\101fstand|\u0041fstand|\U00000041fstand|\N{LATIN CAPITAL LETTER A}fstand", True),
        (r"\S*afstand", False),  # a class escape is no literal
        (r"\A.*\W\D\Bf(s)\1?tand\Z", False),  # nor an anchor or a backreference
        (r"\x61fstand", False),
        ("[A-Z]fstand", True),
        ("Afstand", True),
    ])
    def test_ignorecase_follows_literals(self, regex, flagged):
        q = TopicQuery(name="q", regex=regex)
        assert bool(q._pattern.flags & re.IGNORECASE) == flagged
        assert q.matches("hou AFSTAND") and q.matches("hou afstand")

    def test_builtin_regex_compiles_as_written(self):
        pattern = load_builtin_query("socialdistancing")._pattern
        assert pattern.flags == re.compile(pattern.pattern).flags


class TestKeywordMatch:
    def test_substring_selects_longer_words(self):
        q = TopicQuery(name="p", keywords=frozenset(PANDEMIC_KEYWORDS))
        assert keyword_match(q, "Het coronavirus verspreidt zich")

    def test_case_insensitive(self):
        q = TopicQuery(name="q", keywords=frozenset({"rivm"}))
        assert keyword_match(q, "RIVM meldt cijfers")

    def test_no_keyword_present(self):
        q = TopicQuery(name="p", keywords=frozenset(PANDEMIC_KEYWORDS))
        assert not keyword_match(q, "mooi weer vandaag")

    def test_requires_keywords(self):
        q = TopicQuery(name="r", regex="x")
        with pytest.raises(ValueError):
            keyword_match(q, "x")

    @settings(max_examples=60)
    @given(
        prefix=st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
        suffix=st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
    )
    def test_case_invariance_and_planted_hit(self, prefix, suffix):
        q = TopicQuery(name="q", keywords=frozenset({"corona"}))
        text = f"{prefix}CoRoNa{suffix}"
        assert keyword_match(q, text)
        assert keyword_match(q, text.upper())
        assert keyword_match(q, text.lower())


class TestRegexMatch:
    def q(self):
        return load_builtin_query("socialdistancing")

    def test_hou_afstand_branch(self):
        assert regex_match(self.q(), "hou toch afstand")

    def test_numeric_branch(self):
        assert regex_match(self.q(), "1,5 m afstand houden")

    def test_empty_text(self):
        assert not regex_match(self.q(), "")

    def test_requires_regex(self):
        q = TopicQuery(name="k", keywords=frozenset({"a"}))
        with pytest.raises(ValueError):
            regex_match(q, "a")


class TestMatches:
    def test_keywords_or_regex_selects_a_regex_only_hit(self):
        q = TopicQuery(name="q", keywords=frozenset({"corona"}), regex="trein")
        assert [q.matches(text) for text in PROBES] == [True, True, False]

    @settings(max_examples=200, deadline=None)
    @given(
        keywords=st.frozensets(st.text(alphabet="abcAB ßé", min_size=1, max_size=3)
                               .filter(str.strip), max_size=3),
        regex=st.sampled_from([None, "", "ab", "c.a", "^b", "é$", "a|bc", "Ab", "C.a", "\\S+X"]),
        text=st.text(alphabet="abcABC ßéÉ\n", max_size=12),
    )
    def test_one_matching_rule(self, keywords, regex, text):
        if not keywords and not regex:
            return
        q = TopicQuery(name="q", keywords=keywords, regex=regex)
        folded = text.casefold()
        flags = re.IGNORECASE if regex and regex != regex.casefold() else 0
        expected = (any(k.casefold() in folded for k in keywords)
                    or bool(regex) and re.search(regex, folded, flags) is not None)
        assert q.matches(text) == expected


class TestBuiltinQueries:
    def test_pandemic_keyword_set(self):
        q = load_builtin_query("table2")
        assert q.keywords == frozenset(PANDEMIC_KEYWORDS)
        assert q.regex is None

    def test_aliases_resolve(self):
        assert load_builtin_query("pandemic").keywords == load_builtin_query("table2").keywords
        assert load_builtin_query("social-distancing").regex == load_builtin_query("socialdistancing").regex

    def test_unknown_name(self):
        with pytest.raises(InputError):
            load_builtin_query("nosuch")

    def test_load_query_infers_combine(self, tmp_path):
        # keywords and a regex: either one selects a message
        path = tmp_path / "q.json"
        path.write_text('{"name": "x", "keywords": ["a"], "regex": "b"}', encoding="utf-8")
        query = load_query(path)
        assert [query.matches(text) for text in ("a", "b", "c")] == [True, True, False]

    def test_load_query_null_fields_take_defaults(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text('{"name": null, "keywords": null, "regex": "b", "combine": null}',
                        encoding="utf-8")
        query = load_query(path)
        assert (query.name, query.keywords, query.regex) == ("q", frozenset(), "b")

    @pytest.mark.parametrize("document", [
        '{"keywords": ["corona"], "combine": "keywords_only"}',
        '{"regex": "trein", "combine": "regex_only"}',
        '{"keywords": ["corona"], "regex": "trein", "combine": "keywords_or_regex"}',
        '{"keywords": ["corona"], "regex": "", "combine": "keywords_only"}',
    ])
    def test_legacy_combine_that_agrees_loads(self, document, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(document, encoding="utf-8")
        legacy = load_query(path)
        record = json.loads(document)
        del record["combine"]
        path.write_text(json.dumps(record), encoding="utf-8")
        assert legacy == load_query(path)

    def test_empty_regex_counts_as_none(self, tmp_path):
        # as when the mode was inferred: keywords_only, so "" never matched everything
        path = tmp_path / "q.json"
        path.write_text('{"keywords": ["corona"], "regex": ""}', encoding="utf-8")
        query = load_query(path)
        assert [query.matches(text) for text in PROBES] == [True, False, False]

    @pytest.mark.parametrize("stem", sorted(p.stem for p in DATA_DIR.glob("*.json")))
    def test_shipped_query_files_hold_only_the_query_fields(self, stem):
        record = json.loads((DATA_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        assert set(record) <= {"name", "keywords", "regex"}
        assert load_builtin_query(stem).name == record["name"]

    @pytest.mark.parametrize("document, reason", [
        ('[1, 2]', "expected a JSON object, got list"),
        ('"corona"', "expected a JSON object, got str"),
        ('{"keywords": 5}', "keywords must be a list of strings"),
        ('{"keywords": "corona"}', "keywords must be a list of strings"),
        ('{"keywords": ["a", null]}', "keywords must be a list of strings"),
        ('{"keywords": ["a"], "regex": 7}', "regex must be a string, got int"),
        ('{"keywords": ["a"], "name": 3}', "name must be a string, got int"),
        ('{"keywords": ["a"], "combine": ["keywords_only"]}',
         "combine must be 'keywords_only' or absent, got ['keywords_only']"),
        ('{"keywords": []}', "query 'q' has neither keywords nor regex"),
        ('{"keywords": ["a"], "combine": "fuzzy"}',
         "combine must be 'keywords_only' or absent, got 'fuzzy'"),
        ('{"regex": "a", "combine": "keywords_or_regex"}',
         "combine must be 'regex_only' or absent, got 'keywords_or_regex'"),
        ('{"keywords": ["corona"], "regex": "trein", "combine": "keywords_only"}',
         "combine must be 'keywords_or_regex' or absent, got 'keywords_only'"),
        ('{"keywords": ["corona", ""]}', "query 'q' has a blank keyword"),
        ('{"keywords": ["corona", " \\t"]}', "query 'q' has a blank keyword"),
    ])
    def test_load_query_names_file_and_reason(self, document, reason, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(document, encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_query(path)
        assert str(info.value) == f"q.json: {reason}"


def split_corpus(msgs, query):
    """Reference partition into (matched, unmatched) lists, in input order."""
    matched, unmatched = [], []
    for msg, hit in iter_partition(msgs, query):
        (matched if hit else unmatched).append(msg)
    return matched, unmatched


class TestSplitCorpus:
    def test_partition_sizes(self):
        q = TopicQuery(name="q", keywords=frozenset({"corona"}))
        msgs = make_messages(["corona hier", "niets", "corona daar", "ook niets", "nee"])
        matched, unmatched = split_corpus(msgs, q)
        assert (len(matched), len(unmatched)) == (2, 3)

    def test_all_matching(self):
        q = TopicQuery(name="q", keywords=frozenset({"a"}))
        msgs = make_messages(["aap", "adam"])
        matched, unmatched = split_corpus(msgs, q)
        assert len(matched) == 2 and unmatched == []

    def test_planted_278_of_1000(self):
        q = TopicQuery(name="q", keywords=frozenset({"corona"}))
        texts = [f"corona bericht {i}" if i < 278 else f"iets anders {i}" for i in range(1000)]
        matched, unmatched = split_corpus(make_messages(texts), q)
        assert len(matched) == 278
        assert len(matched) + len(unmatched) == 1000

    @given(st.lists(st.sampled_from(["corona nieuws", "gewoon nieuws", "rivm cijfers"]), max_size=40))
    def test_conservation(self, texts):
        q = TopicQuery(name="q", keywords=frozenset({"corona", "rivm"}))
        msgs = make_messages(texts)
        matched, unmatched = split_corpus(msgs, q)
        assert len(matched) + len(unmatched) == len(msgs)
        assert sorted(m.id for m in matched + unmatched) == sorted(m.id for m in msgs)


class TestTScore:
    def test_equal_proportions_give_zero(self):
        assert tscore(10, 100, 1000, 10000) == 0.0

    def test_hand_case_is_about_seven(self):
        t = tscore(50, 5, 1000, 10000)
        assert abs(t - brute_tscore(50, 5, 1000, 10000)) < 1e-12
        assert round(t, 2) == 7.0

    def test_matches_brute_force_on_random_counts(self):
        import random

        rng = random.Random(5)
        for _ in range(200):
            nm, nu = rng.randint(50, 5000), rng.randint(50, 5000)
            cm = rng.randint(1, nm)
            cu = rng.randint(0, nu)
            assert tscore(cm, cu, nm, nu) == pytest.approx(
                brute_tscore(cm, cu, nm, nu), abs=1e-12, rel=1e-12
            )

    @given(
        cm=st.integers(min_value=1, max_value=50),
        cu=st.integers(min_value=0, max_value=50),
        extra_m=st.integers(min_value=0, max_value=1000),
        extra_u=st.integers(min_value=0, max_value=1000),
    )
    def test_finite_whenever_token_occurs(self, cm, cu, extra_m, extra_u):
        t = tscore(cm, cu, cm + extra_m, max(cu + extra_u, 1))
        assert math.isfinite(t)

    def test_monotone_in_matched_count(self):
        nm, nu, cu = 1000, 10000, 5
        previous = -math.inf
        for cm in range(1, 200):
            t = tscore(cm, cu, nm, nu)
            assert t >= previous
            previous = t


class TestTScoreRank:
    def test_ranks_and_orders_by_t(self):
        matched = Counter({"meter": 50, "de": 400, "en": 300})
        unmatched = Counter({"meter": 5, "de": 4000, "en": 3000})
        rows = tscore_rank(matched, unmatched, min_count=1, top_k=10)
        assert rows[0].token == "meter"
        ts = [r.t for r in rows]
        assert ts == sorted(ts, reverse=True)

    def test_against_brute_force_ranking(self):
        import random

        rng = random.Random(99)
        pool = [f"w{i}" for i in range(30)]
        for _ in range(30):
            matched = Counter({w: rng.randint(1, 40) for w in rng.sample(pool, rng.randint(3, 20))})
            unmatched = Counter({w: rng.randint(1, 40) for w in rng.sample(pool, rng.randint(3, 20))})
            nm, nu = sum(matched.values()), sum(unmatched.values())
            expected = sorted(
                (
                    (-brute_tscore(c, unmatched.get(tok, 0), nm, nu), -c, tok)
                    for tok, c in matched.items()
                ),
            )
            rows = tscore_rank(matched, unmatched, min_count=1, top_k=len(matched))
            assert [r.token for r in rows] == [tok for _, _, tok in expected]
            for row in rows:
                assert row.t == pytest.approx(
                    brute_tscore(row.count_matched, row.count_unmatched, nm, nu),
                    abs=1e-12, rel=1e-12,
                )

    def test_tie_break_count_then_token(self):
        # both tokens absent from unmatched with equal counts: equal t
        matched = Counter({"bb": 10, "aa": 10, "cc": 20})
        unmatched = Counter({"x": 100})
        rows = tscore_rank(matched, unmatched, min_count=1, top_k=3)
        assert [r.token for r in rows] == ["cc", "aa", "bb"]

    def test_min_count_suppresses_rare_tokens(self):
        matched = Counter({"vaak": 10, "zelden": 2})
        unmatched = Counter({"vaak": 1})
        rows = tscore_rank(matched, unmatched, min_count=5, top_k=10)
        assert [r.token for r in rows] == ["vaak"]

    def test_top_k_truncates(self):
        matched = Counter({f"w{i}": 10 + i for i in range(30)})
        unmatched = Counter({"x": 5})
        assert len(tscore_rank(matched, unmatched, min_count=1, top_k=7)) == 7

    def test_empty_sides_error(self):
        with pytest.raises(InputError, match="no matched tokens"):
            tscore_rank(Counter(), Counter({"a": 1}), min_count=1, top_k=5)
        with pytest.raises(InputError, match="no unmatched tokens"):
            tscore_rank(Counter({"a": 1}), Counter(), min_count=1, top_k=5)

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            tscore_rank(Counter({"a": 1}), Counter({"b": 1}), min_count=0, top_k=5)
        with pytest.raises(ValueError):
            tscore_rank(Counter({"a": 1}), Counter({"b": 1}), min_count=1, top_k=0)


def planted_meter_corpus():
    """'meter' is far denser inside the matched side; fillers occur on both."""
    matched_texts = [f"afstand met meter erbij nummer{i % 7}" for i in range(40)]
    unmatched_texts = [f"gewoon met bericht erbij nummer{i % 7}" for i in range(360)]
    unmatched_texts[0] = "een losse meter hier"
    return matched_texts, unmatched_texts


class ReadCounter:
    """An iterable corpus that counts how often it is read."""

    def __init__(self, msgs):
        self.msgs, self.reads = msgs, 0

    def __iter__(self):
        self.reads += 1
        return iter(self.msgs)


# raw tokens that normalise to the same token, punctuation-only tokens and a
# query term in several spellings
EXPANSION_WORDS = ["afstand", "Afstand!", "(afstand)", "meter", "METER.", "Meter,", "1,5",
                   "#blijfthuis", "@rivm", "--", "…", "goed", "GOED", "ΟΔΟΣ.", "οδος"]


def list_based_candidates(query, msgs, top_k, min_count):
    """Candidates counted from the two lists split_corpus gives."""
    matched, unmatched = split_corpus(msgs, query)
    matched_counts = count_tokens(m.text for m in matched)
    ranked = tscore_rank(matched_counts, count_tokens(m.text for m in unmatched),
                         min_count=min_count, top_k=max(top_k, len(matched_counts)))
    return tuple(s for s in ranked if s.token not in query.keywords)[:top_k]


class TestExpansion:
    def query(self):
        return TopicQuery(name="afstand", keywords=frozenset({"afstand"}))

    def corpus(self):
        matched_texts, unmatched_texts = planted_meter_corpus()
        return make_messages(matched_texts + unmatched_texts)

    def test_planted_term_ranks_first(self):
        report = expand_query(self.query(), self.corpus(), rounds=1, top_k=5, min_count=5)
        assert report.rounds[0].candidates[0].token == "meter"

    def test_existing_terms_excluded(self):
        report = expand_query(self.query(), self.corpus(), rounds=1, top_k=50, min_count=1)
        tokens = [c.token for c in report.rounds[0].candidates]
        assert "afstand" not in tokens

    def test_exclusion_does_not_change_totals(self):
        # the query term itself still counts toward n_matched
        report = expand_query(self.query(), self.corpus(), rounds=1, top_k=5, min_count=5)
        candidate = report.rounds[0].candidates[0]
        matched, unmatched = split_corpus(self.corpus(), self.query())
        assert candidate.n_matched == sum(count_tokens(m.text for m in matched).values())
        assert candidate.n_unmatched == sum(count_tokens(m.text for m in unmatched).values())

    def test_stable_corpus_repeats_identically(self):
        report = expand_query(self.query(), self.corpus(), rounds=2, top_k=5, min_count=5)
        assert report.rounds[0] == report.rounds[1]

    def test_corpus_ranked_once_for_all_rounds(self):
        corpus = ReadCounter(self.corpus())
        report = expand_query(self.query(), corpus, rounds=3, top_k=5, min_count=5)
        assert corpus.reads == 1
        assert len(report.rounds) == 3
        assert report.rounds[0] == report.rounds[1] == report.rounds[2]

    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(EXPANSION_WORDS), min_size=1, max_size=8)
                          .map(" ".join), min_size=1, max_size=60),
           top_k=st.integers(1, 8), min_count=st.integers(1, 4))
    def test_report_matches_list_based_count(self, texts, top_k, min_count):
        query, msgs = self.query(), make_messages(texts)
        try:
            expected = list_based_candidates(query, msgs, top_k, min_count)
        except InputError as exc:
            with pytest.raises(InputError, match=re.escape(str(exc))):
                expand_query(query, msgs, top_k=top_k, min_count=min_count)
            return
        report = expand_query(query, iter(msgs), rounds=2, top_k=top_k, min_count=min_count)
        assert report.rounds[0].candidates == report.rounds[1].candidates == expected

    def test_all_matched_tokens_already_known_yields_nothing(self):
        msgs = make_messages(["aap noot", "aap mies", "boom roos vis"])
        q = TopicQuery(name="alles", keywords=frozenset({"aap", "noot", "mies"}))
        report = expand_query(q, msgs, rounds=1, top_k=5, min_count=1)
        assert report.rounds[0].candidates == ()

    def test_rounds_validated(self):
        with pytest.raises(ValueError):
            expand_query(self.query(), self.corpus(), rounds=0)
