"""Shared builders for corpora, labeled sets and fixture files."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from opinionpulse.corpus import Message
from opinionpulse.stance import LabeledExample

LABELS = ("supports", "rejects", "other")

SUPPORT_WORDS = ["steun", "goed", "eens", "prima", "voorstander", "helpt", "nuttig", "verstandig"]
REJECT_WORDS = ["onzin", "slecht", "oneens", "waardeloos", "tegenstander", "schadelijk", "nutteloos", "dom"]
OTHER_WORDS = ["zon", "koffie", "trein", "film", "muziek", "recept", "vakantie", "voetbal"]
FILLER_WORDS = ["de", "het", "een", "dus", "toch", "ook"]
_POOLS = {"supports": SUPPORT_WORDS, "rejects": REJECT_WORDS, "other": OTHER_WORDS}


def msg(
    text: str,
    *,
    id: str = "m1",
    ts: str = "2020-03-12T15:00:00Z",
    lang: str = "nl",
    platform: str = "twitter",
    is_repost: bool = False,
) -> Message:
    when = datetime.fromisoformat(ts.replace("Z", "+00:00"))
    return Message(id=id, timestamp=when, text=text, lang=lang, platform=platform,
                   is_repost=is_repost)


def make_messages(texts, start="2020-03-01T12:00:00Z", step_minutes=7) -> list[Message]:
    """One message per text, ids m0.. and evenly spaced timestamps."""
    t0 = datetime.fromisoformat(start.replace("Z", "+00:00"))
    return [
        msg(text, id=f"m{i}", ts=(t0 + timedelta(minutes=step_minutes * i))
            .strftime("%Y-%m-%dT%H:%M:%SZ"))
        for i, text in enumerate(texts)
    ]


def write_corpus(path, msgs) -> None:
    """JSONL corpus file in the ingest schema."""
    with open(path, "w", encoding="utf-8") as handle:
        for m in msgs:
            handle.write(json.dumps({
                "id": m.id,
                "created_at": m.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "text": m.text,
                "lang": m.lang,
                "platform": m.platform,
                "retweet": m.is_repost,
            }, ensure_ascii=False) + "\n")


def make_separable(n: int, seed: int, noise: float = 0.0) -> list[LabeledExample]:
    """Synthetic 3-class set with disjoint per-class vocabularies.

    Labels rotate supports/rejects/other; with ``noise`` each label flips
    to another class with that probability.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = LABELS[i % 3]
        pool = _POOLS[label]
        k = int(rng.integers(2, 5))
        words = [pool[int(j)] for j in rng.integers(0, len(pool), k)]
        words += [FILLER_WORDS[int(j)] for j in rng.integers(0, len(FILLER_WORDS), int(rng.integers(1, 3)))]
        rng.shuffle(words)
        final = label
        if noise and rng.random() < noise:
            final = LABELS[(LABELS.index(label) + 1 + int(rng.integers(0, 2))) % 3]
        out.append(LabeledExample(text=" ".join(words), label=final))
    return out


def write_labels(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ex in examples:
            handle.write(f"{ex.label}\t{ex.text}\n")


def fnv1a(data: bytes) -> int:
    """32-bit FNV-1a, one byte at a time: the scalar reference for ``featurize``'s hashes."""
    value = 0x811C9DC5
    for byte in data:
        value ^= byte
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value


def char_ngrams(word: str, minn: int, maxn: int) -> list[str]:
    """The ``minn``- to ``maxn``-character n-grams of ``<word>``, shortest first."""
    padded = f"<{word}>"
    grams = []
    for size in range(minn, maxn + 1):
        if size > len(padded):
            break
        for start in range(len(padded) - size + 1):
            grams.append(padded[start : start + size])
    return grams


def sgd_gradient_error(step, E, W, b, urows, weights, y, eps=1e-6) -> float:
    """Worst relative error of ``step``'s update against central differences of its loss.

    ``step(E, W, b, urows, weights, y, lr)`` updates its arrays in place and returns
    the example's loss, as ``stance.model._sgd_step`` does. A step that computes every
    update from the values before it is linear in ``lr``, so at ``lr = 1``, in float64,
    ``before - after`` is the analytic gradient of ``E``, ``W`` and ``b``. The numeric
    one is central differences of the loss that ``step`` returns at ``lr = 0``. Every
    cell of ``E`` is checked, so a change to a row outside ``urows`` counts as an error.
    """
    params = [np.array(param, dtype=np.float64) for param in (E, W, b)]
    after = [param.copy() for param in params]
    step(*after, urows, weights, y, 1.0)

    def loss_at(which, cell, delta):
        moved = [param.copy() for param in params]
        moved[which][cell] += delta
        return step(*moved, urows, weights, y, 0.0)

    worst = 0.0
    for which, (before, updated) in enumerate(zip(params, after)):
        for cell in np.ndindex(before.shape):
            analytic = before[cell] - updated[cell]
            numeric = (loss_at(which, cell, eps) - loss_at(which, cell, -eps)) / (2 * eps)
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


@pytest.fixture
def utc():
    return timezone.utc


# (number, description, passed) rows appended by the acceptance suite
ACCEPTANCE_RESULTS: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} {status}  {description}")
