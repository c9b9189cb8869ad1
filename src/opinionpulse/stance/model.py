"""Bag-of-features stance classifier.

A message is embedded as the mean of the vectors of its features: one
per in-vocabulary word plus one per hashed character n-gram (the word
padded as "<word>"). A single linear layer over that mean produces
three-way softmax scores. Training is plain seeded SGD with a linearly
decaying learning rate, single threaded so runs are reproducible.

Every embedding row starts as a pure function of ``(seed, row)``, so the
model stores only the rows that training updated; any other row, such as
an n-gram bucket first seen at predict time, keeps its initial vector, as
in fastText's hashed subword n-grams (Bojanowski et al. 2017).
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..corpus import Message
from ..exceptions import InputError, json_loads
from ..tokenization import tokenize
from .data import LABELS, LabeledExample
# Hyperparams lives in params, which the CLI imports without numpy
from .params import Hyperparams

logger = logging.getLogger(__name__)

MODEL_FORMAT_VERSION = 2

# bytes of each (rows, dim) temporary of initial_rows and predict, whatever the dim: runs of
# max(1, BLOCK_BYTES // (8 * dim)) rows, and a word or text with more rows is a run of its own
BLOCK_BYTES = 1 << 17
# train and predict featurize words this many at a time, so their temporaries stay small
FEATURIZE_BLOCK_WORDS = 256
# distinct words whose class scores a model keeps for predict; emptied when full
PREDICT_CACHE_WORDS = 1 << 15
# messages label_corpus reads ahead and labels with one predict_batch call
PREDICT_BATCH = 64

FNV_OFFSET = 0x811C9DC5
FNV_PRIME = 0x01000193

UINT64_MASK = (1 << 64) - 1
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MUL1 = 0xBF58476D1CE4E5B9
SPLITMIX_MUL2 = 0x94D049BB133111EB


def featurize(words: Sequence[str], word_ids: dict[str, int],
              hp: Hyperparams) -> tuple[np.ndarray, np.ndarray]:
    """Embedding rows of every word, flat, and how many of them belong to each word.

    A word's rows are its vocab id, if any, then ``len(word_ids) + fnv1a(gram) %
    bucket`` for each character n-gram of ``<word>``, shortest first, where ``fnv1a``
    is 32-bit FNV-1a over the gram's UTF-8 bytes. All n-grams are hashed together, one
    numpy step per byte position; uint32 products wrap mod 2**32, as FNV-1a needs.
    """
    padded = "".join([f"<{word}>" for word in words])
    points = np.frombuffer(padded.encode("utf-32-le"), dtype=np.uint32)
    data = np.frombuffer(padded.encode("utf-8"), dtype=np.uint8)
    # UTF-8 byte offset of every character, then of the end; 1 + (limits <= code point) bytes
    offsets = np.zeros(points.size + 1, dtype=np.int64)
    np.cumsum(np.searchsorted([0x80, 0x800, 0x10000], points, side="right") + 1, out=offsets[1:])
    lengths = np.fromiter(map(len, words), np.int64, len(words)) + 2
    word_end = np.repeat(np.cumsum(lengths), lengths)  # where each character's word ends
    sizes = range(hp.char_ngram_min, hp.char_ngram_max + 1)
    starts = [np.flatnonzero(np.arange(points.size) + n <= word_end) for n in sizes]
    stops = np.concatenate([start + n for n, start in zip(sizes, starts)])
    starts = np.concatenate(starts)
    # (size, word, start) order to (word, size, start), each word's n-grams shortest first
    order = np.argsort(word_end[starts], kind="stable")
    first = offsets[starts[order]]
    nbytes = offsets[stops[order]] - first
    # longest first, so the n-grams with a byte left at step k are a prefix
    by_len = np.argsort(-nbytes, kind="stable")
    first = first[by_len]
    live = np.searchsorted(-nbytes[by_len], -np.arange(nbytes.max(initial=0)), side="left")
    hashes = np.full(first.size, FNV_OFFSET, dtype=np.uint32)
    for k, n in enumerate(live):
        hashes[:n] ^= data[first[:n] + k]
        hashes[:n] *= np.uint32(FNV_PRIME)
    grams = np.empty(first.size, dtype=np.int64)
    grams[by_len] = hashes
    gram_counts = sum(np.maximum(lengths - n + 1, 0) for n in sizes)
    ids = np.fromiter((word_ids.get(word, -1) for word in words), np.int64, len(words))
    has_id = ids >= 0
    rows = np.insert(grams % hp.bucket + len(word_ids),
                     (np.cumsum(gram_counts) - gram_counts)[has_id], ids[has_id])
    return rows, gram_counts + has_id


def compress(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows, in their own integer dtype, plus per-row weights summing to 1.

    The embedded text is the feature mean; folding duplicates into
    weights keeps SGD updates exact where fancy-indexed `-=` would
    apply a repeated row only once.
    """
    urows, counts = np.unique(np.asarray(rows), return_counts=True)
    weights = counts / counts.sum()
    return urows, weights


@dataclass
class StanceModel:
    hyperparams: Hyperparams
    vocab: list[str]
    rows: np.ndarray  # (k,) sorted int64 ids of the embedding rows training touched
    E: np.ndarray  # (k, dim) their vectors; every other row keeps initial_rows()
    W: np.ndarray  # (len(LABELS), dim) output layer
    b: np.ndarray  # (len(LABELS),)
    labels: tuple[str, ...] = LABELS
    loss_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        self.word_ids = {word: i for i, word in enumerate(self.vocab)}
        self._word_cache = _ScoreTable(0, len(self.labels))  # predict_batch sizes it


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output function, in place on a uint64 array of states."""
    z ^= z >> 30
    z *= SPLITMIX_MUL1
    z ^= z >> 27
    z *= SPLITMIX_MUL2
    z ^= z >> 31
    return z


def initial_rows(seed: int, rows, dim: int) -> np.ndarray:
    """Initial vectors of embedding ``rows``: float32, uniform in [-1/dim, 1/dim).

    Cell ``(row, col)`` is output number ``row * dim + col + 1`` of a
    splitmix64 generator started at ``seed``. A row's vector therefore does
    not depend on which other rows are asked for with it, or in what order.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    out = np.empty((rows.size, dim), dtype=np.float32)
    # generator state of cell (row, col): seed + (row * dim + col + 1) * gamma
    row_stride = dim * SPLITMIX_GAMMA & UINT64_MASK
    col_states = np.arange(1, dim + 1, dtype=np.uint64) * SPLITMIX_GAMMA
    col_states += seed & UINT64_MASK
    for start in range(0, rows.size, step := max(1, BLOCK_BYTES // (8 * dim))):
        states = rows[start : start + step, None] * row_stride + col_states
        # the top 24 bits k of each hash; k < 2**24 converts to float32 exactly
        out[start : start + step] = _splitmix64(states) >> 40
    # 2 * k / 2**24 - 1 is exact and uniform over [-1, 1); / dim rounds once
    out *= 2.0**-23
    out -= 1
    out /= dim
    return out


def _sgd_step(E: np.ndarray, W: np.ndarray, b: np.ndarray, urows: np.ndarray,
              weights: np.ndarray, y: int, lr: float) -> float:
    """One SGD update of ``E[urows]``, ``W`` and ``b`` in place; returns the example's loss.

    With ``h = weights @ E[urows]`` and ``p = softmax(W @ h + b)`` (in Python floats), the
    loss ``-log p[y]`` has gradient ``g = p - onehot(y)`` for ``b``, ``outer(g, h)`` for ``W``
    and ``outer(weights, g @ W)`` for ``E[urows]``. Each takes ``-lr`` times its gradient,
    all computed before the step, in ``E.dtype``.
    """
    urows = urows.astype(np.intp, copy=False)  # once, for the gather and the store
    rows = E.take(urows, axis=0)
    h = weights @ rows
    z = (W @ h + b).tolist()
    top = max(z)
    exps = [math.exp(value - top) for value in z]
    total = sum(exps)
    g = np.array([lr * value / total for value in exps], dtype=E.dtype)  # lr * softmax
    g[y] -= lr
    rows -= weights[:, None] * (g @ W)
    E[urows] = rows
    W -= g[:, None] * h
    b -= g
    return math.log(total) - (z[y] - top)


def _training_rows(examples: list[LabeledExample], hp: Hyperparams):
    """(vocabulary, touched rows, per-example rows and weights) of a training set.

    The vocabulary lists each word in first-seen order. The touched rows are
    the sorted int64 ids of every row some word has. Each example gets its
    unique int32 indices into the touched rows and their float32 weights, or
    None when it has no words.
    """
    vocab: dict[str, int] = {}  # word -> vocab id, in first-seen order
    tokenized = []
    for ex in examples:
        words = tokenize(ex.text)
        tokenized.append(words)
        for word in words:
            vocab.setdefault(word, len(vocab))
    vocab_words = list(vocab)
    blocks = [featurize(vocab_words[start : start + FEATURIZE_BLOCK_WORDS], vocab, hp)
              for start in range(0, len(vocab_words), FEATURIZE_BLOCK_WORDS)]
    empty = [np.empty(0, np.int64)]
    vocab_rows = np.concatenate([block_rows for block_rows, _ in blocks] or empty)
    counts = np.concatenate([block_counts for _, block_counts in blocks] or empty)
    del blocks
    # every vocabulary word occurs in some example, so its rows are the touched rows;
    # the inverse maps each global row id to its index among them, in sorted order
    touched, local = np.unique(vocab_rows, return_inverse=True)
    del vocab_rows
    local = local.astype(np.int32)
    features = dict(zip(vocab_words, np.split(local, np.cumsum(counts)[:-1])))
    compressed = []
    for words in tokenized:
        if words:
            urows, weights = compress(np.concatenate([features[word] for word in words]))
            compressed.append((urows, weights.astype(np.float32)))
        else:
            compressed.append(None)
    return vocab_words, touched, compressed


def train(examples: Sequence[LabeledExample], hp: Hyperparams | None = None) -> StanceModel:
    """Train a classifier on labeled examples.

    Deterministic for a fixed seed: the initial vectors come from
    ``initial_rows``, and each epoch visits the examples in the order that
    ``random.Random(seed).shuffle`` gives ``range(n)``, one generator for all
    epochs. Only the embedding rows some example touches are allocated.
    """
    hp = hp or Hyperparams()
    examples = list(examples)
    if not examples:
        raise InputError("no training examples")
    if len({ex.label for ex in examples}) < 2:
        raise InputError("degenerate training set: fewer than two distinct labels")

    # the featurization state is local to _training_rows, so none of it lives during SGD
    vocab_words, touched, compressed = _training_rows(examples, hp)
    label_ids = [LABELS.index(ex.label) for ex in examples]
    rng = random.Random(hp.seed)
    E = initial_rows(hp.seed, touched, hp.dim)
    W = np.zeros((len(LABELS), hp.dim), dtype=np.float32)
    b = np.zeros(len(LABELS), dtype=np.float32)

    n = len(examples)
    total_updates = hp.epochs * n
    done = 0
    loss_history = []
    for _ in range(hp.epochs):
        order = list(range(n))
        rng.shuffle(order)
        epoch_loss = 0.0
        for idx in order:
            lr = hp.lr * (1 - done / total_updates)
            done += 1
            pair = compressed[idx]
            if pair is None:
                continue
            epoch_loss += _sgd_step(E, W, b, pair[0], pair[1], label_ids[idx], lr)
        loss_history.append(epoch_loss / n)

    model = StanceModel(hyperparams=hp, vocab=vocab_words, rows=touched, E=E, W=W, b=b)
    model.loss_history = loss_history
    logger.info("trained on %d examples, %d embedding rows, final epoch loss %.4f",
                n, len(touched), loss_history[-1])
    return model


class _ScoreTable:
    """Each word's float64 class scores ``W @ s``, ``s`` the sum of its feature vectors, and
    its int64 feature count, by slot."""

    def __init__(self, capacity: int, n_labels: int):
        self.slots: dict[str, int] = {}
        self.scores = np.empty((capacity, n_labels))
        self.counts = np.empty(capacity, dtype=np.int64)


def _runs(counts: np.ndarray, cap: int) -> Iterator[tuple[np.ndarray, np.ndarray, int, int]]:
    """Items of ``counts`` rows each in runs of up to ``cap`` rows, cut between items.

    Yields a run's items that have rows (reduceat's segments), their starts in it, its row range.
    """
    nonempty = np.flatnonzero(counts)
    stops = np.cumsum(counts)[nonempty]
    starts = stops - counts[nonempty]
    lo = 0
    while lo < nonempty.size:
        # the items whose rows end within the cap, and at least one item
        hi = max(int(np.searchsorted(stops, starts[lo] + cap, "right")), lo + 1)
        yield nonempty[lo:hi], starts[lo:hi] - starts[lo], int(starts[lo]), int(stops[hi - 1])
        lo = hi


def _resolve_words(model: StanceModel, words: list[str], table: _ScoreTable) -> None:
    """Give distinct new ``words`` slots in ``table``, with their feature counts and scores.

    Words are featurized FEATURIZE_BLOCK_WORDS at a time. A word's float32 vectors, stored
    in ``E`` or initial, add in featurize order into a float64 sum, whatever the cuts, and
    its scores are that sum's row-wise multiply-sum with ``W``, so they do not depend on the
    words resolved with it (a matrix product may round a row differently in another batch).
    """
    hp, first = model.hyperparams, len(table.slots)
    table.slots.update(zip(words, range(first, first + len(words))))
    for done in range(0, len(words), FEATURIZE_BLOCK_WORDS):
        flat, counts = featurize(words[done : done + FEATURIZE_BLOCK_WORDS], model.word_ids, hp)
        table.counts[first + done : first + done + counts.size] = counts
        scores = table.scores[first + done : first + done + counts.size]
        scores[:] = 0  # a word shorter than char_ngram_min and outside the vocabulary: no features
        # each row's index in E, and whether E stores it; any other row keeps its initial vector
        at = np.searchsorted(model.rows, flat)
        stored = at < model.rows.size
        stored[stored] = model.rows[at[stored]] == flat[stored]
        for words_at, starts, lo, hi in _runs(counts, max(1, BLOCK_BYTES // (8 * hp.dim))):
            vectors = np.empty((hi - lo, hp.dim), dtype=np.float32)
            hit = stored[lo:hi]
            vectors[hit] = model.E[at[lo:hi][hit]]
            vectors[~hit] = initial_rows(hp.seed, flat[lo:hi][~hit], hp.dim)
            sums = np.add.reduceat(vectors, starts, axis=0, dtype=np.float64)
            scores[words_at] = (sums[:, None, :] * model.W).sum(axis=2)


def predict(model: StanceModel, text: str) -> tuple[str, np.ndarray]:
    """Label a text; returns (label, per-class probabilities).

    A text with no extractable features falls back to the bias scores.
    """
    return predict_batch(model, [text])[0]


def predict_batch(model: StanceModel, texts: Sequence[str]) -> list[tuple[str, np.ndarray]]:
    """``predict`` for each text, classifying the batch as one matrix.

    New words are resolved into the model's word cache, which holds at most
    PREDICT_CACHE_WORDS words and is emptied when they would not fit (a batch with more
    gets a table of its own). A text's logits add its words' scores in order, divide by its
    feature count and add ``b``; they and the softmax come from the text's own words alone,
    so its probabilities do not depend on the batch or on what the cache held before.
    """
    tokenized = [tokenize(text) for text in texts]
    words = list(chain.from_iterable(tokenized))
    table, distinct = model._word_cache, dict.fromkeys(words)
    missing = [word for word in distinct if word not in table.slots]
    if len(table.slots) + len(missing) > table.counts.size:
        missing = list(distinct)  # emptied, so every word is new
        table = model._word_cache = _ScoreTable(PREDICT_CACHE_WORDS, len(model.labels))
        if len(missing) > PREDICT_CACHE_WORDS:
            table = _ScoreTable(len(missing), len(model.labels))
    _resolve_words(model, missing, table)
    slots = np.fromiter(map(table.slots.__getitem__, words), np.int64, len(words))
    logits = np.empty((len(texts), len(model.labels)))
    logits[:] = model.b  # a text with no features keeps the bias scores
    lengths = np.fromiter(map(len, tokenized), np.int64, len(texts))
    for at, starts, _, _ in _runs(lengths, len(words)):  # one run, every text with words
        scores = np.add.reduceat(table.scores[slots], starts, axis=0)
        counts = np.add.reduceat(table.counts[slots], starts)
        live = counts > 0
        logits[at[live]] = scores[live] / counts[live, None] + model.b
    # each row's softmax on its own, through its log, all rows in one step
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    return [(model.labels[i], row) for i, row in zip(probs.argmax(axis=1).tolist(), probs)]


def label_corpus(
    model: StanceModel, msgs: Iterable[Message | LabeledExample]
) -> Iterator[tuple[Message | LabeledExample, str, np.ndarray]]:
    """Predict a stance for each message's text, PREDICT_BATCH at a time, in input order."""
    msgs = iter(msgs)
    while batch := list(islice(msgs, PREDICT_BATCH)):
        for msg, (label, probs) in zip(batch, predict_batch(model, [msg.text for msg in batch])):
            yield msg, label, probs


def save_model(model: StanceModel, path) -> None:
    """Write the model: one JSON header line, then the stored rows and arrays.

    The payload is the header's ``rows`` count of int64 row ids, then
    ``E``, ``W`` and ``b`` as float32, all little endian, so a load
    reproduces the exact training-time bits.
    """
    header = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparams": model.hyperparams.to_dict(),
        "label_order": list(model.labels),
        "rows": int(model.rows.size),
        "vocab": model.vocab,
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        # written through the buffer protocol: no bytes copy of the arrays
        handle.write(np.ascontiguousarray(model.rows, dtype="<i8"))
        for array in (model.E, model.W, model.b):
            handle.write(np.ascontiguousarray(array, dtype="<f4"))


def load_model(path) -> StanceModel:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"model file not found: {path}")
    with open(path, "rb") as handle:
        header_line = handle.readline()
        try:
            header = json_loads(header_line)
        except ValueError as exc:
            raise InputError(f"{path.name}: malformed model header: {exc}, line 1") from None
        if not isinstance(header, dict):
            raise InputError(f"{path.name}: malformed model header")
        version = header.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise InputError(f"{path.name}: unsupported model format {version!r}")
        try:
            hp = Hyperparams(**header["hyperparams"])
            order = header["label_order"]
            if not (isinstance(order, list) and len(order) == len(LABELS)
                    and all(label in order for label in LABELS)):
                raise ValueError(f"label_order must list each of {list(LABELS)} once, "
                                 f"got {order!r}")
            labels = tuple(order)
            vocab = list(header["vocab"])
            if len(set(vocab)) != len(vocab):  # n-gram rows start at len(vocab)
                raise ValueError("vocab repeats a word")
            k = int(header["rows"])
            if k < 0:
                raise ValueError(f"negative row count {k}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path.name}: bad model header: {exc}") from None
        payload = np.fromfile(handle, dtype=np.uint8)

    n_labels = len(labels)
    expected = 8 * k + 4 * (k * hp.dim + n_labels * hp.dim + n_labels)
    if payload.size != expected:
        raise InputError(
            f"{path.name}: model payload has {payload.size} bytes, expected {expected}")
    rows = payload[: 8 * k].view("<i8")
    if np.any(rows[1:] <= rows[:-1]):
        raise InputError(f"{path.name}: model rows are not strictly increasing")
    if k and (rows[0] < 0 or rows[-1] >= len(vocab) + hp.bucket):
        raise InputError(f"{path.name}: model rows outside [0, {len(vocab) + hp.bucket})")
    E, W, b = np.split(payload[8 * k :].view("<f4"), [k * hp.dim, (k + n_labels) * hp.dim])
    return StanceModel(hyperparams=hp, vocab=vocab, rows=rows, E=E.reshape(k, hp.dim),
                       W=W.reshape(n_labels, hp.dim), b=b, labels=labels)
