"""Seeded input generator with ground truth for the opinionpulse benchmark.

Every workload's inputs derive from one integer seed: the same seed and
scale give byte-identical files. The generator also returns the ground
truth it planted (which lines are malformed, which messages carry a topic
keyword, a social-distancing phrase, a stance, which emoji), so the output
checks never have to trust the program under test.

Texts are built only from lowercase ASCII pseudo-words, a few fixed
keyword and phrase forms, the punctuation ``.,!?`` glued to word ends, and
single-code-point emoji. Under that alphabet the documented tokenizer rule
reduces to ``raw.strip(".,!?").lower()``, which the reference scorer uses.
"""

from __future__ import annotations

import json
import math
import random
import re
import unicodedata
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

LABELS = ("supports", "rejects", "other")

START = datetime(2020, 2, 1, tzinfo=timezone.utc)

# surface forms that contain one of the table2 keywords (case varies on purpose)
KEYWORD_FORMS = (
    "corona", "Corona", "coronavirus", "#COVID19", "covid-19", "Covid",
    "huisarts", "mondkapje", "mondkapjes", "RIVM", "#blijfthuis",
    "#flattenthecurve", "#houvol",
)
# phrases the shipped socialdistancing regex matches
SD_PHRASES = (
    "1,5 meter afstand", "anderhalve meter", "afstand houden",
    "hou 1.5m afstand", "1,5m", "anderhalve-meter",
)
COLLOCATE = "thuiswerken"
CUES = {
    "supports": ("steunen", "terecht", "verstandig", "goedzo", "voorstander"),
    "rejects": ("onzin", "belachelijk", "flauwekul", "overdreven", "tegenstander"),
    "other": ("vraagje", "benieuwd", "misschien", "weetjes", "zomaar"),
}
PUNCT = ".,!?"
# Annotated examples are short and clean, so a thousand or two train past the
# accuracy floor, and grid-search configurations tie on validation, where the
# smaller dim wins: the winner, and so the work, does not depend on the seed.
LABEL_WORDS = (3, 8)
PLATFORMS = ("twitter", "nunl", "reddit")

# substrings no pseudo-word may contain, so topic matches happen only where planted
FORBIDDEN = (
    "corona", "covid", "huisarts", "mondkapje", "rivm", "flattenthecurve",
    "blijfthuis", "houvol", "afstand", "anderhalve", COLLOCATE,
) + tuple(cue for cues in CUES.values() for cue in cues)
_FORBIDDEN_RE = re.compile("|".join(map(re.escape, FORBIDDEN)))

_ONSETS = ("b", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "dr", "gr", "kl", "kr", "pr", "sch", "sl", "sp", "st", "tr", "vl", "zw")
_NUCLEI = ("a", "e", "i", "o", "u", "aa", "ee", "oo", "ie", "oe", "ij", "ui", "eu")
_CODAS = ("", "", "n", "r", "s", "t", "l", "k")
SYLLABLES = tuple(o + n + c for o in _ONSETS for n in _NUCLEI for c in dict.fromkeys(_CODAS))


def emoji_pool() -> list[str]:
    """Single-code-point symbols U+1F300..U+1F64F without the skin-tone modifiers."""
    pool = [chr(cp) for cp in range(0x1F300, 0x1F650) if not 0x1F3FB <= cp <= 0x1F3FF]
    if any(unicodedata.category(ch) != "So" for ch in pool):
        raise RuntimeError("emoji pool holds a code point that is not category So")
    return pool


def pseudo_words(count: int) -> list[str]:
    """``count`` distinct pseudo-words, a fixed sequence independent of the seed."""
    words: dict[str, None] = {}
    base = len(SYLLABLES)
    span = base * base - base  # two-syllable numbers; the prime stride visits them all
    k = 0
    while len(words) < count:
        n, parts = base + (k * 1_000_003) % span, []
        k += 1
        while n:
            n, digit = divmod(n, base)
            parts.append(SYLLABLES[digit])
        word = "".join(reversed(parts))
        if not _FORBIDDEN_RE.search(word):
            words.setdefault(word, None)
    return list(words)


@dataclass(frozen=True)
class Spec:
    """Size and mix of one generated corpus."""

    messages: int
    vocab: int
    zipf: float = 1.05
    keyword_share: float = 0.0
    sd_share: float = 0.0
    collocate_share: float = 0.0  # of social-distancing messages
    langs: tuple = (("nl", 0.7), ("und", 0.1), ("en", 0.15), ("de", 0.05))
    repost_share: float = 0.1
    dup_text_share: float = 0.0
    dup_id_share: float = 0.0
    malformed_share: float = 0.0
    emoji_weights: tuple = (0.5, 0.3, 0.15, 0.05)  # P(0, 1, 2, 3 emoji)
    stance_cues: bool = False
    days: int = 120
    words: tuple = (6, 18)


@dataclass
class Record:
    """Ground truth of one corpus line."""

    line: str
    valid: bool
    id: str = ""
    platform: str = ""
    ts: datetime | None = None
    text: str = ""
    lang: str = ""
    repost: bool = False
    stance: str = ""
    keyword: bool = False
    sd: bool = False


@dataclass
class Corpus:
    records: list
    planted_malformed: int = 0

    @property
    def valid(self) -> list:
        return [r for r in self.records if r.valid]


@dataclass
class Inputs:
    """Files written for one workload plus what was planted in them."""

    corpus: Corpus | None = None
    lexicon_words: dict = field(default_factory=dict)
    lexicon_emoji: dict = field(default_factory=dict)
    events: list = field(default_factory=list)  # (date, label)
    indicator: dict = field(default_factory=dict)  # date -> value
    sizes: dict = field(default_factory=dict)


class TextMaker:
    def __init__(self, rng: random.Random, spec: Spec, emoji: list[str]):
        self.rng = rng
        self.spec = spec
        self.emoji = emoji
        words = pseudo_words(spec.vocab)
        rng.shuffle(words)  # the seed decides which word gets which Zipf rank
        self.words = words
        self.cum = list(_cumulative(1.0 / (r + 1) ** spec.zipf for r in range(len(words))))

    def text(self, *, keyword: bool, sd: bool, stance: str, labelled: bool = False) -> str:
        """A message; ``labelled`` ones are short and always carry cues of their own stance."""
        rng, spec = self.rng, self.spec
        n = rng.randint(*(LABEL_WORDS if labelled else spec.words))
        tokens = rng.choices(self.words, cum_weights=self.cum, k=n)
        extra = []
        if keyword:
            extra.append(rng.choice(KEYWORD_FORMS))
        if sd:
            extra.append(rng.choice(SD_PHRASES))
            if rng.random() < spec.collocate_share:
                extra.append(COLLOCATE)
        elif spec.collocate_share and rng.random() < 0.002:
            extra.append(COLLOCATE)
        if stance:
            if labelled or rng.random() < 0.9:
                extra.extend(rng.sample(CUES[stance], rng.randint(1 + labelled, 3)))
            if not labelled and rng.random() < 0.1:
                extra.append(rng.choice(CUES[rng.choice(LABELS)]))
        for item in extra:
            tokens.insert(rng.randrange(len(tokens) + 1), item)
        tokens = [t + rng.choice(PUNCT) if rng.random() < 0.2 else t for t in tokens]
        k = rng.choices(range(len(spec.emoji_weights)), weights=spec.emoji_weights)[0]
        for _ in range(k):
            symbol = rng.choice(self.emoji)
            pos = rng.randrange(len(tokens))
            if rng.random() < 0.5:
                tokens[pos] += symbol  # glued: the token no longer matches as a word
            else:
                tokens.insert(pos, symbol)
        if rng.random() < 0.5:
            tokens[0] = tokens[0][:1].upper() + tokens[0][1:]
        return " ".join(tokens)


def _cumulative(values):
    total = 0.0
    for value in values:
        total += value
        yield total


_MALFORMED = (
    lambda i, ts: '{"id": "%d", "created_at": "%s", "text": "afgekapt' % (i, ts),
    lambda i, ts: json.dumps({"id": str(i), "created_at": ts}),
    lambda i, ts: json.dumps({"id": str(i), "created_at": ts, "text": "   "}),
    lambda i, ts: json.dumps({"id": str(i), "created_at": "2020-02-30T10:00:00Z", "text": "datum"}),
    lambda i, ts: json.dumps({"id": str(i), "created_at": ts, "text": "x", "platform": "myspace"}),
    lambda i, ts: "[1, 2, 3]",
)


def make_corpus(rng: random.Random, spec: Spec, maker: TextMaker) -> Corpus:
    records: list[Record] = []
    texts: list[tuple] = []  # (text, stance, keyword, sd) of every fresh text
    malformed = 0
    langs, lang_weights = zip(*spec.langs)
    for i in range(spec.messages):
        msg_id = str(10_000_000 + i)
        ts = START + timedelta(seconds=rng.randrange(spec.days * 86400))
        ts_text = ts.strftime("%Y-%m-%dT%H:%M:%SZ")
        roll = rng.random()
        if roll < spec.malformed_share:
            line = rng.choice(_MALFORMED)(10_000_000 + i, ts_text)
            records.append(Record(line=line, valid=False))
            malformed += 1
            continue
        valid_so_far = [r for r in records[-50:] if r.valid]
        if roll < spec.malformed_share + spec.dup_id_share and valid_so_far:
            twin = rng.choice(valid_so_far)
            records.append(Record(**{**twin.__dict__}))
            continue
        if texts and rng.random() < spec.dup_text_share:
            text, stance, keyword, sd = rng.choice(texts)
        else:
            stance = rng.choice(LABELS) if spec.stance_cues else ""
            keyword = rng.random() < spec.keyword_share
            sd = rng.random() < spec.sd_share
            text = maker.text(keyword=keyword, sd=sd, stance=stance)
            texts.append((text, stance, keyword, sd))
        lang = rng.choices(langs, weights=lang_weights)[0]
        platform = rng.choice(PLATFORMS)
        repost = rng.random() < spec.repost_share
        line = json.dumps({"id": msg_id, "created_at": ts_text, "text": text, "lang": lang,
                           "platform": platform, "retweet": repost}, ensure_ascii=False)
        records.append(Record(line=line, valid=True, id=msg_id, platform=platform, ts=ts,
                              text=text, lang=lang, repost=repost, stance=stance,
                              keyword=keyword, sd=sd))
    return Corpus(records=records, planted_malformed=malformed)


def make_labels(rng: random.Random, maker: TextMaker, count: int, sd_share: float) -> list:
    labels = []
    for _ in range(count):
        stance = rng.choice(LABELS)
        text = maker.text(keyword=False, sd=rng.random() < sd_share, stance=stance, labelled=True)
        labels.append((stance, text))
    return labels


# Corpus sizes at scale 1.0; the README lists them with the per-pass times they
# give. Only the 750 emoji (the size of the Emoji Sentiment Ranking), the
# 5k-word lexicon, the 200k-type vocabulary, the 20% duplicate texts and the
# 120 days were fixed in advance. Every other share and length here is an
# assumption, not measured on a real dump: the README's "Input mix" names the
# metrics each one drives. trend's mix is set so that most messages reach the
# sentiment stage and are long enough for the per-emoji scan to show, which
# makes polarity scoring the largest share of that workload's wall time.
WORKLOADS = {
    "trend": dict(
        corpus=Spec(messages=15_000, vocab=20_000, keyword_share=0.8, sd_share=0.03,
                    langs=(("nl", 0.8), ("und", 0.05), ("en", 0.1), ("de", 0.05)),
                    repost_share=0.1, dup_text_share=0.03, dup_id_share=0.03,
                    malformed_share=0.01, emoji_weights=(0.3, 0.35, 0.2, 0.15),
                    words=(16, 32)),
        lexicon_words=5_000, lexicon_emoji=750, events=10,
    ),
    "stance": dict(
        corpus=Spec(messages=4_000, vocab=10_000, keyword_share=0.5, stance_cues=True,
                    malformed_share=0.01),
        labels=1_000,
    ),
    "curate": dict(
        corpus=Spec(messages=20_000, vocab=200_000, zipf=0.9, sd_share=0.18,
                    collocate_share=0.5, dup_text_share=0.2, malformed_share=0.01,
                    stance_cues=True, words=(8, 24)),
        labels=1_200,
    ),
}


def generate(workload: str, seed: int, outdir, scale: float = 1.0) -> Inputs:
    """Write the inputs of ``workload`` into ``outdir`` and return the ground truth."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    cfg = WORKLOADS[workload]
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    spec = cfg["corpus"]
    spec = Spec(**{**spec.__dict__, "messages": max(200, round(spec.messages * scale))})
    emoji = emoji_pool()
    maker = TextMaker(rng, spec, emoji)
    inputs = Inputs()

    inputs.corpus = make_corpus(rng, spec, maker)
    _write_lines(outdir / "corpus.jsonl", (r.line for r in inputs.corpus.records))
    inputs.sizes["messages"] = spec.messages

    if "labels" in cfg:
        count = cfg["labels"]  # not scaled: fewer examples would not train to the floor
        labels = make_labels(rng, maker, count, spec.sd_share)
        _write_lines(outdir / "labels.tsv", (f"{label}\t{text}" for label, text in labels))
        inputs.sizes["labels"] = count

    if "lexicon_words" in cfg:
        ranked = maker.words[: 4 * cfg["lexicon_words"]]
        words = rng.sample(ranked, min(len(ranked), cfg["lexicon_words"]))
        inputs.lexicon_words = {w: round(rng.uniform(-1, 1), 3) for w in words}
        inputs.lexicon_emoji = {e: round(rng.uniform(-1, 1), 3)
                                for e in rng.sample(emoji, cfg["lexicon_emoji"])}
        lines = ["# generated polarity lexicon"]
        lines += [f"{t}\t{s!r}" for t, s in inputs.lexicon_words.items()]
        lines += [f"{t}\t{s!r}" for t, s in inputs.lexicon_emoji.items()]
        _write_lines(outdir / "lexicon.tsv", lines)

        first = START.date()
        inside = sorted(rng.sample(range(10, spec.days - 10), cfg["events"] - 2))
        days = [-15] + inside + [spec.days + 15]
        inputs.events = [(first + timedelta(days=d), f"event {i}") for i, d in enumerate(days)]
        events = [{"date": d.isoformat(), "label": label} for d, label in inputs.events]
        (outdir / "events.json").write_text(json.dumps(events, indent=1) + "\n", encoding="utf-8")

        phase = rng.uniform(0, 2 * math.pi)
        inputs.indicator = {
            first + timedelta(days=d): round(100 + 30 * math.sin(d / 9 + phase) + rng.gauss(0, 5), 3)
            for d in range(20, spec.days + 30)
        }
        _write_lines(
            outdir / "indicator.csv",
            ["date,value"] + [f"{d.isoformat()},{v!r}" for d, v in inputs.indicator.items()])
    return inputs


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
