"""Classifier internals: features, training, persistence."""

import json
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import char_ngrams, fnv1a, make_separable, sgd_gradient_error
from opinionpulse.cli import main as cli_main
from opinionpulse.corpus import Message
from opinionpulse.exceptions import InputError
from opinionpulse.stance import Hyperparams, grid_hyperparams, load_model, predict, save_model, train
from opinionpulse.stance.data import LABELS, LabeledExample
from opinionpulse.stance import model as model_module
from opinionpulse.stance.model import (
    compress,
    featurize,
    initial_rows,
    label_corpus,
    predict_batch,
)
from opinionpulse.tokenization import tokenize

FAST = Hyperparams(dim=10, epochs=20, lr=0.2, bucket=1000, seed=42)


def word_rows(words, vocab, hp):
    """featurize's rows of each word, as lists of ints."""
    rows, counts = featurize(words, {word: i for i, word in enumerate(vocab)}, hp)
    return [part.tolist() for part in np.split(rows, np.cumsum(counts)[:-1])] if words else []


def make_message(text, i):
    return Message(id=str(i), timestamp=datetime(2020, 3, 12, tzinfo=timezone.utc), text=text)


def two_class_examples(n=200):
    examples = []
    for i in range(n // 2):
        examples.append(LabeledExample(text=f"aaa bbb ding{i % 5}", label="supports"))
        examples.append(LabeledExample(text=f"ccc ddd ding{i % 5}", label="rejects"))
    return examples


def random_word_examples():
    """600 examples of 50 random 8-letter words: a vocabulary of about 30,000 words."""
    rng = random.Random(11)
    letters = "abcdefghijklmnopqrstuvwxyz"
    examples = [LabeledExample(text=" ".join("".join(rng.choices(letters, k=8))
                                             for _ in range(50)), label=LABELS[i % 3])
                for i in range(600)]
    return examples, Hyperparams(dim=10, epochs=1, bucket=1000, seed=1)


@pytest.fixture(scope="module")
def trained():
    return train(two_class_examples(), FAST)


class TestHyperparams:
    def test_defaults(self):
        hp = Hyperparams()
        assert (hp.dim, hp.epochs, hp.lr) == (10, 10, 0.2)
        assert (hp.char_ngram_min, hp.char_ngram_max) == (3, 6)
        assert hp.bucket == 2_000_000
        assert hp.seed == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"epochs": 0},
            {"lr": 0.0},
            {"lr": -0.1},
            {"char_ngram_min": 0},
            {"char_ngram_min": 4, "char_ngram_max": 3},
            {"bucket": 0},
            {"lr": float("nan")},
            {"lr": float("inf")},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            Hyperparams(**kwargs)

    def test_to_dict_round_trips(self):
        hp = Hyperparams(dim=25, epochs=30, lr=0.5, seed=7)
        assert Hyperparams(**hp.to_dict()) == hp


class TestGridHyperparams:
    def test_cartesian_product_order(self):
        grid = grid_hyperparams([10, 20], [10], [0.05, 0.1], seed=3)
        combos = [(hp.dim, hp.epochs, hp.lr) for hp in grid]
        assert combos == [(10, 10, 0.05), (10, 10, 0.1), (20, 10, 0.05), (20, 10, 0.1)]
        assert all(hp.seed == 3 for hp in grid)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"dim 5 outside"):
            grid_hyperparams([5], [10], [0.1])
        with pytest.raises(ValueError, match=r"dim 301 outside"):
            grid_hyperparams([301], [10], [0.1])
        with pytest.raises(ValueError, match=r"epochs 9 outside"):
            grid_hyperparams([10], [9], [0.1])
        with pytest.raises(ValueError, match=r"epochs 501 outside"):
            grid_hyperparams([10], [501], [0.1])
        with pytest.raises(ValueError, match=r"lr 0.01 outside"):
            grid_hyperparams([10], [10], [0.01])
        with pytest.raises(ValueError, match=r"lr 1.5 outside"):
            grid_hyperparams([10], [10], [1.5])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            grid_hyperparams([], [10], [0.1])


class TestFeatureHashing:
    def test_fnv1a_known_vectors(self):
        # published 32-bit FNV-1a values
        assert fnv1a(b"") == 0x811C9DC5
        assert fnv1a(b"a") == 0xE40C292C

    def test_fnv1a_deterministic_and_bounded(self):
        for word in ["afstand", "corona", "😀", "x" * 50]:
            data = word.encode("utf-8")
            assert fnv1a(data) == fnv1a(data)
            assert 0 <= fnv1a(data) < 2**32

    def test_char_ngrams_short_word(self):
        assert char_ngrams("ab", 3, 6) == ["<ab", "ab>", "<ab>"]

    def test_char_ngrams_count(self):
        # "<afstand>" has length 9: 7+6+5+4 windows for sizes 3..6
        grams = char_ngrams("afstand", 3, 6)
        assert len(grams) == 22
        assert grams[0] == "<af" and grams[-1] == "stand>"

    def test_char_ngrams_word_shorter_than_min(self):
        assert char_ngrams("a", 4, 6) == []

    # 1-, 2-, 3- and 4-byte UTF-8 characters, and a skin-tone modifier
    BYTE_WIDTHS = "ax<>é\u07ff中\uffff😀👍🏽\U0010ffff"

    @settings(max_examples=200, deadline=None)
    @given(
        words=st.lists(st.text(alphabet=BYTE_WIDTHS, max_size=12), max_size=12, unique=True),
        in_vocab=st.lists(st.booleans(), min_size=12, max_size=12),
        minn=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=5),
        bucket=st.sampled_from([1, 7, 1000, 2_000_000, 2**32 - 1, 2**33]),
    )
    def test_featurize_equals_scalar_hash(self, words, in_vocab, minn, extra, bucket):
        hp = Hyperparams(char_ngram_min=minn, char_ngram_max=minn + extra, bucket=bucket)
        vocab = ["<anker>"] + [word for word, keep in zip(words, in_vocab) if keep]
        ids = {word: i for i, word in enumerate(vocab)}
        expected = [
            ([ids[word]] if word in ids else [])
            + [len(vocab) + fnv1a(g.encode("utf-8")) % bucket
               for g in char_ngrams(word, minn, minn + extra)]
            for word in words
        ]
        assert word_rows(words, vocab, hp) == expected

    def test_featurize_long_and_short_words(self):
        hp = Hyperparams(char_ngram_min=4, char_ngram_max=9, bucket=2_000_000)
        words = ["x" * 40, "a", "", "é😀", "anderhalvemetersamenleving"]
        expected = [[3 + fnv1a(g.encode("utf-8")) % hp.bucket for g in char_ngrams(w, 4, 9)]
                    for w in words]
        assert word_rows(words, ["aap", "noot", "mies"], hp) == expected
        assert featurize([], {}, hp)[0].size == 0

    def test_featurize_vocab_rows_come_first(self):
        hp = Hyperparams(bucket=100)
        rows = word_rows(["noot"], ["aap", "noot"], hp)[0]
        assert rows[0] == 1
        assert all(2 <= r < 2 + 100 for r in rows[1:])

    def test_featurize_out_of_vocab_word_still_hashes(self):
        hp = Hyperparams(bucket=100)
        rows = word_rows(["mies"], ["aap"], hp)[0]
        assert rows
        assert all(1 <= r < 1 + 100 for r in rows)

    def test_compress_folds_duplicates_into_weights(self):
        urows, weights = compress([5, 5, 7])
        assert urows.tolist() == [5, 7]
        assert weights.tolist() == pytest.approx([2 / 3, 1 / 3], abs=1e-15)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestInitialRows:
    def test_row_vector_independent_of_batch_and_order(self):
        rows = [7, 1_999_999, 0, 4096, 123_456]
        together = initial_rows(5, rows, 12)
        for i, row in enumerate(rows):
            assert np.array_equal(initial_rows(5, [row], 12)[0], together[i])
        assert np.array_equal(initial_rows(5, rows[::-1], 12), together[::-1])

    def test_row_vector_independent_of_block(self, monkeypatch):
        monkeypatch.setattr(model_module, "BLOCK_BYTES", 8 * 4 * 16)  # 16 rows at dim 4
        many = initial_rows(5, np.arange(3 * 16 + 5), 4)
        for row in (0, 15, 16, 17, len(many) - 1):
            assert np.array_equal(initial_rows(5, [row], 4)[0], many[row])

    def test_changes_with_seed(self):
        first = initial_rows(1, np.arange(50), 10)
        assert not np.array_equal(first, initial_rows(2, np.arange(50), 10))
        assert not np.array_equal(first, initial_rows(-1, np.arange(50), 10))
        assert np.array_equal(first, initial_rows(1, np.arange(50), 10))

    @pytest.mark.parametrize("dim", [1, 3, 10, 50, 300])
    def test_values_in_range(self, dim):
        values = initial_rows(42, np.arange(20_000 // dim + 1), dim)
        assert values.dtype == np.float32
        assert values.shape == (20_000 // dim + 1, dim)
        bound = np.float32(1 / dim)
        assert (values >= -bound).all() and (values < bound).all()
        # uniform: both ends of the range are reached and the mean is near 0
        assert values.min() < -0.9 * bound and values.max() > 0.9 * bound
        assert abs(float(values.mean())) < 0.05 * bound

    def test_empty_rows(self):
        assert initial_rows(42, [], 8).shape == (0, 8)

    def test_memory_is_per_block(self):
        rows = np.arange(30_000)
        tracemalloc.start()
        try:
            out = initial_rows(5, rows, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 1.1 MiB beyond the 5.7 MiB output; 23.1 MiB as one block of all rows
        assert peak - out.nbytes < 4 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def softmax(z):
    """exp of the log-softmax of ``z``, in the steps predict_batch takes."""
    shifted = z - z.max()
    return np.exp(shifted - np.log(np.exp(shifted).sum()))


def w_first_sgd_step(E, W, b, urows, weights, y, lr):
    """A faulty SGD step: it updates W, then takes the rows' gradient from the new W."""
    rows = E[urows]
    h = weights @ rows
    probs = softmax(W @ h + b)
    g = lr * probs
    g[y] -= lr
    W -= g[:, None] * h
    E[urows] = rows - weights[:, None] * (g @ W)
    b -= g
    return -math.log(probs[y])


class TestGradients:
    def test_match_central_finite_differences(self):
        rng = np.random.default_rng(0)
        n_rows, dim, k = 7, 5, len(LABELS)
        E = rng.normal(size=(n_rows, dim))
        W = rng.normal(size=(k, dim))
        b = rng.normal(size=k)
        for urows, weights in (([1, 4, 6], [0.5, 0.3, 0.2]), ([3], [1.0])):
            urows, weights = np.array(urows), np.array(weights)
            probs = softmax(W @ (weights @ E[urows]) + b)
            for y in range(k):
                error = sgd_gradient_error(model_module._sgd_step, E, W, b, urows, weights, y)
                assert error <= 1e-4, (urows, y, error)
                # the loss itself, which the check above fixes only up to a constant
                loss = model_module._sgd_step(E.copy(), W.copy(), b.copy(), urows, weights, y, 0.0)
                assert loss == pytest.approx(-math.log(probs[y]), rel=0, abs=1e-12)

    def test_check_rejects_a_step_that_updates_w_first(self):
        rng = np.random.default_rng(3)
        E, W, b = rng.normal(size=(6, 4)), rng.normal(size=(len(LABELS), 4)), rng.normal(size=3)
        urows, weights = np.array([0, 2, 5]), np.array([0.25, 0.5, 0.25])
        assert sgd_gradient_error(model_module._sgd_step, E, W, b, urows, weights, 2) <= 1e-4
        assert sgd_gradient_error(w_first_sgd_step, E, W, b, urows, weights, 2) > 1e-4

    def test_gradient_vanishes_on_confident_correct_prediction(self):
        dim, k = 4, len(LABELS)
        E = np.zeros((3, dim))
        W = np.zeros((k, dim))
        b = np.array([50.0, 0.0, 0.0])
        before = b.copy()
        loss = model_module._sgd_step(E, W, b, np.array([0]), np.array([1.0]), 0, 1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(before - b, 0.0, atol=1e-12)
        assert not E.any() and not W.any()


def column_sgd_step(E, W, b, urows, wcol, y, lr):
    """Reference SGD step: the weights as a (len(urows), 1) column, gathered and
    stored with the rows as given."""
    rows = E.take(urows, axis=0)
    h = wcol.T @ rows  # (1, dim)
    z = (W @ h[0] + b).tolist()
    top = max(z)
    exps = [math.exp(value - top) for value in z]
    total = sum(exps)
    g = np.array([lr * value / total for value in exps], dtype=E.dtype)
    g[y] -= lr
    E[urows] = rows - wcol * (g @ W)
    W -= g[:, None] * h
    b -= g
    return math.log(total) - (z[y] - top)


class TestTraining:
    def test_separable_two_class_reaches_full_training_accuracy(self, trained):
        examples = two_class_examples()
        accuracy = sum(predict(trained, ex.text)[0] == ex.label for ex in examples) / len(examples)
        assert accuracy == 1.0

    def test_three_class_synthetic_reaches_full_training_accuracy(self):
        examples = make_separable(150, seed=5)
        model = train(examples, Hyperparams(dim=16, epochs=25, lr=0.3, bucket=2000, seed=42))
        accuracy = sum(predict(model, ex.text)[0] == ex.label for ex in examples) / len(examples)
        assert accuracy == 1.0

    def test_loss_decreases_overall(self, trained):
        history = trained.loss_history
        assert len(history) == FAST.epochs
        assert history[-1] < history[0]
        assert all(np.isfinite(history))

    def test_identical_seeds_reproduce_exactly(self):
        examples = two_class_examples(60)
        first = train(examples, FAST)
        second = train(examples, FAST)
        assert first.loss_history == second.loss_history
        assert np.array_equal(first.E, second.E)
        assert np.array_equal(first.W, second.W)
        assert np.array_equal(first.b, second.b)

    def test_different_seeds_differ(self):
        examples = two_class_examples(60)
        first = train(examples, FAST)
        second = train(examples, replace(FAST, seed=43))
        assert first.loss_history != second.loss_history

    def test_empty_training_set(self):
        with pytest.raises(InputError, match="no training examples"):
            train([], FAST)

    def test_single_label_training_set(self):
        examples = [LabeledExample(text=f"tekst {i}", label="other") for i in range(5)]
        with pytest.raises(InputError, match="fewer than two distinct labels"):
            train(examples, FAST)

    def test_vocab_in_first_occurrence_order(self, trained):
        assert trained.vocab[:4] == ["aaa", "bbb", "ding0", "ccc"]

    def test_featureless_examples_are_skipped(self):
        examples = two_class_examples(40) + [LabeledExample(text="???", label="other")]
        model = train(examples, FAST)
        assert np.isfinite(model.loss_history[-1])

    def test_featureless_examples_count_toward_decay_and_mean_loss(self, monkeypatch):
        examples = two_class_examples(10) + [LabeledExample(text="???", label="other")] * 3
        hp = replace(FAST, epochs=3)
        steps = []
        monkeypatch.setattr(model_module, "_sgd_step",
                            lambda E, W, b, urows, weights, y, lr: steps.append(lr) or 1.0)
        model = train(examples, hp)
        n, rng, expected = len(examples), random.Random(hp.seed), []
        for epoch in range(hp.epochs):
            order = list(range(n))
            rng.shuffle(order)
            expected += [hp.lr * (1 - (epoch * n + k) / (hp.epochs * n))
                         for k, i in enumerate(order) if i < 10]
        assert steps == expected
        assert model.loss_history == [10 / n] * hp.epochs

    @pytest.mark.parametrize("dim", [4, 16, 50])
    def test_training_matches_column_step_reference(self, dim, monkeypatch):
        examples = make_separable(90, seed=dim) + [LabeledExample(text="???", label="other")]
        hp = Hyperparams(dim=dim, epochs=4, lr=0.3, bucket=5000, seed=dim + 1)
        model = train(examples, hp)
        monkeypatch.setattr(model_module, "_sgd_step",
                            lambda E, W, b, urows, weights, y, lr:
                            column_sgd_step(E, W, b, urows, weights[:, None], y, lr))
        reference = train(examples, hp)
        for name in ("E", "W", "b"):
            assert np.array_equal(getattr(model, name), getattr(reference, name)), name
        assert model.loss_history == reference.loss_history

    def test_training_rows_are_int32_with_float32_weights(self, tmp_path, monkeypatch):
        examples = two_class_examples(60) + [LabeledExample(text="???", label="other")]
        _, touched, urows, weights, offsets = model_module._training_rows(examples, FAST)
        assert touched.dtype == np.int64
        assert urows.dtype == np.int32
        assert weights.dtype == np.float32 and weights.shape == urows.shape
        assert offsets.dtype == np.int64 and offsets.shape == (len(examples) + 1,)
        assert offsets[0] == 0 and offsets[-1] == urows.size
        assert (np.diff(offsets) >= 0).all()
        assert offsets[-2] == offsets[-1]  # the featureless example has an empty slice
        save_model(train(examples, FAST), tmp_path / "int32.bin")
        real = model_module._training_rows

        def int64_rows(examples, hp):
            vocab, touched, urows, weights, offsets = real(examples, hp)
            return vocab, touched, urows.astype(np.int64), weights, offsets

        monkeypatch.setattr(model_module, "_training_rows", int64_rows)
        save_model(train(examples, FAST), tmp_path / "int64.bin")
        assert (tmp_path / "int32.bin").read_bytes() == (tmp_path / "int64.bin").read_bytes()

    def test_featureless_training_set_trains_an_empty_table(self, tmp_path):
        examples = [LabeledExample(text=text, label=label)
                    for text, label in zip(["???", "-", "!! ..."], LABELS)]
        model = train(examples, FAST)
        assert model.rows.size == 0 and model.E.shape == (0, FAST.dim)
        assert model.loss_history == [0.0] * FAST.epochs
        save_model(model, tmp_path / "empty.bin")
        assert load_model(tmp_path / "empty.bin").E.shape == (0, FAST.dim)


# words that share n-grams, so tiny buckets make rows collide across words
OVERLAPPING_WORDS = st.text(alphabet="abé", min_size=1, max_size=7)
# an example's text is never empty, but punctuation alone has no words
FLAT_TEXTS = st.one_of(
    st.sampled_from(["???", "!! ...", "aaa aaa aaa", "ab ab ba"]),
    st.lists(OVERLAPPING_WORDS, min_size=1, max_size=6).map(" ".join),
)


class TestFlatIndex:
    @settings(max_examples=80, deadline=None)
    @given(texts=st.lists(FLAT_TEXTS, min_size=1, max_size=10), bucket=st.integers(1, 7))
    def test_slices_are_each_examples_compressed_rows(self, texts, bucket):
        hp = replace(FAST, bucket=bucket)
        examples = [LabeledExample(text=text, label="supports") for text in texts]
        vocab, touched, urows, weights, offsets = model_module._training_rows(examples, hp)
        features = [[row for rows in word_rows(tokenize(text), vocab, hp) for row in rows]
                    for text in texts]
        assert touched.tolist() == sorted(set(chain.from_iterable(features)))
        assert offsets[0] == 0 and offsets[-1] == urows.size == weights.size
        for lo, hi, rows in zip(offsets[:-1], offsets[1:], features, strict=True):
            if not rows:
                assert lo == hi
                continue
            expected_rows, expected_weights = compress(np.searchsorted(touched, rows))
            assert urows[lo:hi].tolist() == expected_rows.tolist()
            assert np.array_equal(weights[lo:hi], expected_weights.astype(np.float32))

    @settings(max_examples=80, deadline=None)
    @given(words=st.lists(OVERLAPPING_WORDS, max_size=30), bucket=st.integers(1, 7))
    def test_touched_rows_match_unique(self, words, bucket):
        hp = replace(FAST, bucket=bucket)
        rows, _ = featurize(words, {word: i for i, word in enumerate(dict.fromkeys(words))}, hp)
        touched, local = model_module._touched_rows(rows)
        expected, inverse = np.unique(rows, return_inverse=True)
        assert touched.dtype == np.int64 and local.dtype == np.int32
        assert np.array_equal(touched, expected)
        assert np.array_equal(local, inverse)


class TestSparseRows:
    UNSEEN = [
        "xylofoon quizwerk zebrapad",
        "aaa onbekendewoordenvloed ccc",
        "ding3 qwertyuiop asdfghjkl",
        "ééé 😀 ß",
    ]

    def test_rows_are_the_training_features(self, trained):
        words = list(chain.from_iterable(tokenize(ex.text) for ex in two_class_examples()))
        expected = sorted({row for rows in word_rows(words, trained.vocab, FAST) for row in rows})
        assert trained.rows.dtype == np.int64
        assert trained.rows.tolist() == expected
        assert trained.E.shape == (len(expected), FAST.dim)

    def dense_reference(self, model, text):
        hp = model.hyperparams
        dense = initial_rows(hp.seed, np.arange(len(model.vocab) + hp.bucket), hp.dim)
        dense[model.rows] = model.E
        features = [row for rows in word_rows(tokenize(text), model.vocab, hp) for row in rows]
        urows, weights = compress(features)
        z = model.W @ (weights @ dense[urows]) + model.b
        return softmax(z.astype(np.float64)), set(features)

    def test_predict_matches_dense_table(self, trained):
        stored = set(trained.rows.tolist())
        for text in self.UNSEEN:
            reference, features = self.dense_reference(trained, text)
            assert features - stored, "the text should reach rows training never touched"
            assert np.allclose(predict(trained, text)[1], reference, rtol=0, atol=1e-6)

    def test_label_corpus_matches_dense_table(self, trained):
        msgs = [make_message(text, i) for i, text in enumerate(self.UNSEEN * 30)]
        for msg, label, probs in label_corpus(trained, msgs):
            reference, _ = self.dense_reference(trained, msg.text)
            assert np.allclose(probs, reference, rtol=0, atol=1e-6)
            assert label == trained.labels[int(np.argmax(reference))]

    def test_predict_cache_stays_bounded(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_model(train(two_class_examples(60), FAST), path)
        cold = load_model(path)
        texts = [f"woord{i} ander{i}" for i in range(200)]
        expected = [predict(load_model(path), text)[1] for text in texts]
        monkeypatch.setattr(model_module, "PREDICT_CACHE_WORDS", 50)
        for text, probs in zip(texts, expected):
            assert np.array_equal(predict(cold, text)[1], probs)
            assert len(cold._word_cache.slots) <= 50
        msgs = [make_message(text, i) for i, text in enumerate(texts)]
        for (_, _, probs), want in zip(label_corpus(cold, msgs), expected):
            assert np.array_equal(probs, want)
        assert len(cold._word_cache.slots) <= 50


BLOCK_HP = Hyperparams(dim=4, epochs=2, lr=0.2, char_ngram_min=5, char_ngram_max=6, bucket=97, seed=3)
# under BLOCK_HP a word of at most two characters has no n-gram, so "a", "é",
# "😀" and "xy" have no features, while "zz" and "qq" have just their vocab id
FEATURELESS = ["a", "é", "😀", "xy"]
LONG_WORD = "supercalifragilistic"  # 36 rows, more than any patched cap


@pytest.fixture(scope="module")
def block_models():
    """A trained BLOCK_HP model, and the same model with no stored rows."""
    examples = [LabeledExample(text=f"zz aaaa steun ééé {LONG_WORD} ding{i}", label="supports")
                for i in range(5)]
    examples += [LabeledExample(text=f"qq bbbb onzin 😀ß ding{i}", label="rejects") for i in range(5)]
    model = train(examples, BLOCK_HP)
    bare = replace(model, rows=np.empty(0, np.int64), E=np.empty((0, BLOCK_HP.dim), np.float32))
    return {True: model, False: bare}


RESOLVE_WORDS = st.one_of(
    st.sampled_from(["zz", "aaaa", "steun", "ééé", LONG_WORD, "ding3", "onzin", "😀ß"]),
    st.sampled_from(FEATURELESS),
    st.text(alphabet="abcdeéß😀", min_size=1, max_size=30),
)


class TestResolveBlocks:
    """_resolve_words and the word cache give the same bits whatever their block caps."""

    @staticmethod
    def resolve(model, words, rows_cap, words_cap):
        """(scores, count) of each word, from a table filled under the caps, and predict_batch's."""
        distinct = list(dict.fromkeys(words))
        with patch.multiple(model_module, BLOCK_BYTES=8 * model.hyperparams.dim * rows_cap,
                            FEATURIZE_BLOCK_WORDS=words_cap):
            table = model_module._ScoreTable(len(distinct), len(model.labels))
            model_module._resolve_words(model, distinct, table)
            model._word_cache = model_module._ScoreTable(0, len(model.labels))
            probs = predict_batch(model, [" ".join(words[i::3]) for i in range(3)])
        slots = np.array([table.slots[word] for word in words], dtype=np.int64)
        return list(zip(table.scores[slots], table.counts[slots].tolist())), probs

    @settings(max_examples=80, deadline=None)
    @given(words=st.lists(RESOLVE_WORDS, max_size=40), cap=st.sampled_from([1, 2, 7]),
           words_cap=st.sampled_from([1, 3, 256]), stored=st.booleans())
    @example(words=[LONG_WORD, "a", "zz", LONG_WORD, "ééé", "xy", "😀ß"], cap=7, words_cap=3,
             stored=True)
    @example(words=FEATURELESS, cap=1, words_cap=2, stored=False)
    def test_blocks_match_one_block(self, block_models, words, cap, words_cap, stored):
        model = block_models[stored]
        scores, probs = self.resolve(model, words, cap, words_cap)
        one_scores, one_probs = self.resolve(model, words, 10**9, 10**9)
        assert [count for _, count in scores] == [count for _, count in one_scores]
        for (got, _), (want, _) in zip(scores, one_scores, strict=True):
            assert np.array_equal(got, want)
        for (label, got), (one_label, want) in zip(probs, one_probs, strict=True):
            assert label == one_label
            assert np.array_equal(got, want)

    def test_featureless_and_oversized_words(self, block_models):
        scores, _ = self.resolve(block_models[True], [*FEATURELESS, "zz", LONG_WORD], 2, 256)
        assert [count for _, count in scores] == [0, 0, 0, 0, 1, 36]
        assert not any(vector.any() for vector, _ in scores[:4])

    @settings(max_examples=60, deadline=None)
    @given(batches=st.lists(st.lists(st.lists(RESOLVE_WORDS, max_size=8).map(" ".join),
                                     min_size=1, max_size=4), min_size=1, max_size=6),
           cap=st.integers(1, 6))
    @example(batches=[["zz aaaa", "steun"], [" ".join(f"woord{i}" for i in range(9))],
                      ["aaaa zz onzin", LONG_WORD]], cap=4)
    def test_refilled_cache_matches_fresh_model(self, block_models, batches, cap):
        # a batch with more new words than the cap is labelled without caching them
        model = block_models[True]
        fresh = [predict_batch(replace(model), texts) for texts in batches]
        words = list(dict.fromkeys(chain.from_iterable(map(tokenize, chain(*batches)))))
        one, _ = self.resolve(replace(model), words, 10**9, 10**9)
        cached = replace(model)
        with patch.object(model_module, "PREDICT_CACHE_WORDS", cap):
            for texts, want in zip(batches, fresh):
                got = predict_batch(cached, texts)
                cache = cached._word_cache
                assert len(cache.slots) <= cap
                for word, slot in cache.slots.items():
                    want_scores, want_count = one[words.index(word)]
                    assert np.array_equal(cache.scores[slot], want_scores)
                    assert cache.counts[slot] == want_count
                for (label, probs), (want_label, want_probs) in zip(got, want, strict=True):
                    assert label == want_label
                    assert np.array_equal(probs, want_probs)

    @pytest.mark.parametrize("block_bytes", [8 * BLOCK_HP.dim, model_module.BLOCK_BYTES, 10**9],
                             ids=["one-row", "default", "unbounded"])
    @settings(max_examples=40, deadline=None)
    @given(texts=st.lists(st.lists(RESOLVE_WORDS, min_size=1, max_size=8).map(" ".join),
                          max_size=12),
           cut=st.integers(0, 12), batch=st.sampled_from([1, 3, 64]),
           cache_words=st.sampled_from([2, 5, 1 << 15]), stored=st.booleans())
    # the whole list empties the cache at its third batch, the second part never does
    @example(texts=[f"woord{i} woord{i + 1}" for i in range(8)], cut=4, batch=2, cache_words=5,
             stored=True)
    def test_label_corpus_splits(self, block_models, block_bytes, texts, cut, batch,
                                 cache_words, stored):
        # labelling a list equals labelling its two parts in order, each on a fresh model,
        # across batches and cache resets
        model = block_models[stored]
        msgs = [make_message(text, i) for i, text in enumerate(texts)]
        with patch.multiple(model_module, BLOCK_BYTES=block_bytes, PREDICT_BATCH=batch,
                            PREDICT_CACHE_WORDS=cache_words):
            whole = list(label_corpus(replace(model), msgs))
            parts = [*label_corpus(replace(model), msgs[:cut]),
                     *label_corpus(replace(model), msgs[cut:])]
        assert len(whole) == len(parts) == len(msgs)
        for (msg, label, probs), (part_msg, part_label, part_probs) in zip(whole, parts):
            assert (msg, label) == (part_msg, part_label)
            assert np.array_equal(probs, part_probs)

    def test_cache_allocates_per_word(self):
        # one float64 score per label and one int64 count per slot, at every dim; 0.75 MiB of
        # scores at full capacity, below the 4 MiB from which numpy advises huge pages
        for dim in (10, 200):
            model = train(two_class_examples(20), Hyperparams(dim=dim, epochs=1, seed=1))
            words = [f"woord{i}" for i in range(37)]
            for n in (1, 10, len(words)):
                predict_batch(model, [" ".join(words[:n])])
                cache = model._word_cache
                assert len(cache.slots) == n
                assert cache.scores.shape == (model_module.PREDICT_CACHE_WORDS, len(LABELS))
                assert cache.counts.shape == (model_module.PREDICT_CACHE_WORDS,)
        assert cache.scores.nbytes < 4 * 2**20

    def test_full_cache_costs_the_same_per_word_at_every_dim(self, monkeypatch):
        # 2,048 distinct six-letter words in one batch of 64 texts fill a 2,048-word cache
        monkeypatch.setattr(model_module, "PREDICT_CACHE_WORDS", 2048)
        words = ["".join(chr(97 + i // 26**k % 26) for k in range(6)) for i in range(2048)]
        msgs = [make_message(" ".join(words[i : i + 32]), i) for i in range(0, len(words), 32)]
        per_word = {}
        for dim in (10, 50, 200):
            model = train(two_class_examples(20), Hyperparams(dim=dim, epochs=1, seed=1))
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                labeled = sum(1 for _ in label_corpus(model, msgs))
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert labeled == len(msgs) and len(model._word_cache.slots) == len(words)
            per_word[dim] = (after - before) / len(words)
        # measured 141.6 to 144.3 bytes at each dim, the spread one-time allocations: 24 of
        # scores, 8 of count, the rest the word, its slot number and its dict entry. A float64
        # feature sum per word would add 8 x dim, 1,520 bytes more at dim 200 than at dim 10
        assert max(per_word.values()) - min(per_word.values()) < 8, per_word
        assert per_word[50] < 8 * len(LABELS) + 8 + 160, per_word

    def test_label_corpus_memory_is_per_block(self, monkeypatch):
        # 64 texts of 400 distinct 8-letter words: 25,600 new words of 26 rows each
        model = train(two_class_examples(20), Hyperparams(dim=50, epochs=1, seed=1))
        words = ["".join(chr(97 + i // 26**k % 26) for k in range(8)) for i in range(64 * 400)]
        msgs = [make_message(" ".join(words[i : i + 400]), i) for i in range(0, len(words), 400)]
        monkeypatch.setattr(model_module, "PREDICT_CACHE_WORDS", 256)
        tracemalloc.start()
        try:
            labeled = list(label_corpus(model, msgs))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(labeled) == len(msgs)
        # measured 6.2 MiB with class scores per word, 15.4 MiB with a float64 sum per word
        assert peak < 20 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("dim", [10, 50, 200])
    def test_label_corpus_transient_memory_is_per_block(self, dim):
        # 128 texts of 40 six-letter words, 3,000 of them distinct: two batches of
        # 2,560 word occurrences, most of them new to the word cache
        model = train(two_class_examples(20), Hyperparams(dim=dim, epochs=1, seed=1))
        words = ["".join(chr(97 + i // 26**k % 26) for k in range(6)) for i in range(3000)]
        msgs = [make_message(" ".join(words[(t * 40 + j) * 7 % 3000] for j in range(40)), t)
                for t in range(128)]
        tracemalloc.start()
        try:
            labeled = sum(1 for _ in label_corpus(model, msgs))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labeled == len(msgs)
        # what outlives the run is the word cache; the rest was transient. Measured 5.1 to
        # 5.3 times the 128 KiB of BLOCK_BYTES at each dim, against 17 and 62 times at dims 50
        # and 200 with caps of 1,024 and 2,048 rows, and 10 to 149 times with BLOCK_BYTES = 10**9
        blocks = (peak - current) / 2**17
        assert blocks < 8, f"transient peak {blocks:.1f} times 128 KiB"

    def test_featurization_state_is_freed_before_sgd(self, monkeypatch):
        examples, hp = random_word_examples()
        seen = {}

        class FirstStep(Exception):
            pass

        def spy(E, W, b, *_):
            seen["traced"], seen["peak"] = tracemalloc.get_traced_memory()
            seen["params"] = E.nbytes + W.nbytes + b.nbytes
            raise FirstStep

        monkeypatch.setattr(model_module, "_sgd_step", spy)
        tracemalloc.start()
        try:
            with pytest.raises(FirstStep):
                train(examples, hp)
        finally:
            tracemalloc.stop()
        vocab = {}
        for ex in examples:
            for word in tokenize(ex.text):
                vocab.setdefault(word, len(vocab))
        # each example's unique rows, int32, and their float32 weights
        per_example = sum(np.unique(featurize(tokenize(ex.text), vocab, hp)[0]).size * (4 + 4)
                          for ex in examples)
        # and the vocabulary, which the model keeps: its words and the list of them
        kept = sum(map(sys.getsizeof, vocab)) + 8 * len(vocab)
        assert seen["traced"] <= seen["params"] + per_example + kept + 2**20, (seen, per_example)
        # vocabulary words are featurized FEATURIZE_BLOCK_WORDS at a time: measured 20.5 MiB
        # up to the first step (42.2 MiB with np.unique's inverse and per-example arrays),
        # and 69.5 MiB with all words in one block
        assert len(vocab) > 29_000
        assert seen["peak"] < 22.6 * 2**20, f"traced peak {seen['peak'] / 2**20:.1f} MiB"

    def test_training_rows_transient_memory_per_vocabulary_row(self):
        examples, hp = random_word_examples()
        tracemalloc.start()
        try:
            vocab, *_ = model_module._training_rows(examples, hp)
            kept, peak = tracemalloc.get_traced_memory()  # kept: what it returned
        finally:
            tracemalloc.stop()
        word_ids = {word: i for i, word in enumerate(vocab)}
        rows = sum(featurize(vocab[start : start + 256], word_ids, hp)[0].size
                   for start in range(0, len(vocab), 256))
        # measured 19.3 bytes per vocabulary row over the 810,000 rows, the sort's copy and
        # binary search; 47.1 with np.unique's inverse and per-example arrays
        assert (peak - kept) / rows < 21.2, f"{(peak - kept) / rows:.1f} bytes per row"


class TestPredict:
    def test_returns_label_and_simplex(self, trained):
        label, probs = predict(trained, "aaa bbb nieuw")
        assert label in LABELS
        assert probs.shape == (len(LABELS),)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs >= 0).all()

    def test_label_is_argmax(self, trained):
        label, probs = predict(trained, "ccc ddd")
        assert label == trained.labels[int(np.argmax(probs))]

    def test_featureless_text_uses_biases(self, trained):
        _, from_empty = predict(trained, "")
        _, from_punct = predict(trained, "???")
        assert np.array_equal(from_empty, from_punct)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from(["", "???", "!! ...", "ééé 😀 ß"]),
        st.sampled_from([ex.text for ex in two_class_examples(10)]),
        st.builds("woord{} ander{} ???".format, st.integers(0, 999), st.integers(0, 999)),
    ), max_size=80))
    def test_batch_matches_lone_predict(self, trained, texts):
        from_biases = softmax(trained.b.astype(np.float64))
        for text, (label, probs) in zip(texts, predict_batch(trained, texts), strict=True):
            alone_label, alone_probs = predict(trained, text)
            assert label == alone_label
            assert np.array_equal(probs, alone_probs)
            if not tokenize(text):
                assert np.array_equal(probs, from_biases)

    @settings(max_examples=60, deadline=None)
    @given(texts=st.lists(st.lists(st.one_of(RESOLVE_WORDS, st.sampled_from(["aaa", "ddd"])),
                                   max_size=8).map(" ".join), max_size=12),
           which=st.sampled_from(["trained", "stored", "bare"]))
    def test_matches_float64_dense_mean(self, trained, block_models, texts, which):
        # the reference: every row of a dense table in float64, and W times the text's mean row
        model = trained if which == "trained" else block_models[which == "stored"]
        hp = model.hyperparams
        dense = initial_rows(hp.seed, np.arange(len(model.vocab) + hp.bucket), hp.dim)
        dense = dense.astype(np.float64)
        dense[model.rows] = model.E
        for text, (label, probs) in zip(texts, predict_batch(replace(model), texts), strict=True):
            features = [row for rows in word_rows(tokenize(text), model.vocab, hp) for row in rows]
            z = model.b.astype(np.float64)
            if features:
                z = z + model.W.astype(np.float64) @ dense[features].mean(axis=0)
            assert np.allclose(probs, softmax(z), rtol=0, atol=1e-12)
            second, top = np.sort(z)[-2:]
            if top - second > 1e-9:
                assert label == model.labels[int(np.argmax(z))]

    @settings(max_examples=50)
    @given(st.text(max_size=40))
    def test_probabilities_always_valid(self, trained, text):
        _, probs = predict(trained, text)
        assert np.isfinite(probs).all()
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert (probs >= 0).all()


class TestPersistence:
    def test_save_load_bit_exact(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.hyperparams == trained.hyperparams
        assert loaded.vocab == trained.vocab
        assert loaded.labels == trained.labels
        assert np.array_equal(loaded.E, trained.E)
        assert np.array_equal(loaded.W, trained.W)
        assert np.array_equal(loaded.b, trained.b)

    def test_predictions_survive_round_trip(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        loaded = load_model(path)
        probes = [f"aaa ding{i} misschien ccc" for i in range(100)]
        for text in probes:
            before_label, before_probs = predict(trained, text)
            after_label, after_probs = predict(loaded, text)
            assert before_label == after_label
            assert np.array_equal(before_probs, after_probs)

    def test_header_is_one_json_line(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
        assert header["format_version"] == 2
        assert header["label_order"] == list(LABELS)
        assert header["vocab"] == trained.vocab

    def test_file_size_follows_stored_rows(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        header = path.read_bytes().partition(b"\n")[0]
        k, dim = len(trained.rows), FAST.dim
        assert json.loads(header)["rows"] == k
        assert path.stat().st_size == len(header) + 1 + 8 * k + 4 * (k * dim + 3 * dim + 3)

    def test_model_without_stored_rows_round_trips(self, tmp_path):
        examples = [LabeledExample(text="???", label="supports"),
                    LabeledExample(text="!!!", label="rejects")]
        model = train(examples, FAST)
        assert model.rows.size == 0 and model.E.shape == (0, FAST.dim)
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.rows.size == 0
        assert np.array_equal(predict(loaded, "aaa")[1], predict(model, "aaa")[1])

    @staticmethod
    def rewrite(path, header_edit=None, rows_edit=None):
        head, _, rest = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        if header_edit:
            header_edit(header)
        k = header["rows"]
        rows = np.frombuffer(rest[: 8 * k], dtype="<i8").copy()
        if rows_edit:
            rows_edit(rows)
        path.write_bytes(json.dumps(header).encode() + b"\n" + rows.tobytes() + rest[8 * k :])

    def test_rejects_format_1(self, trained, tmp_path):
        path = tmp_path / "old.bin"
        save_model(trained, path)
        self.rewrite(path, header_edit=lambda h: h.update(format_version=1))
        with pytest.raises(InputError, match=r"old\.bin: unsupported model format 1"):
            load_model(path)

    def test_rejects_unsorted_rows(self, trained, tmp_path):
        path = tmp_path / "swapped.bin"
        save_model(trained, path)

        def swap(rows):
            rows[[0, 1]] = rows[[1, 0]]
        self.rewrite(path, rows_edit=swap)
        with pytest.raises(InputError, match=r"swapped\.bin: model rows are not strictly increasing"):
            load_model(path)

    def test_rejects_repeated_row(self, trained, tmp_path):
        path = tmp_path / "twice.bin"
        save_model(trained, path)
        self.rewrite(path, rows_edit=lambda rows: rows.__setitem__(1, rows[0]))
        with pytest.raises(InputError, match=r"twice\.bin: model rows are not strictly"):
            load_model(path)

    def test_rejects_row_past_table(self, trained, tmp_path):
        path = tmp_path / "edge.bin"
        save_model(trained, path)
        n_rows = len(trained.vocab) + FAST.bucket
        self.rewrite(path, rows_edit=lambda rows: rows.__setitem__(-1, n_rows))
        with pytest.raises(InputError, match=rf"edge\.bin: model rows outside \[0, {n_rows}\)"):
            load_model(path)

    def test_rejects_negative_row(self, trained, tmp_path):
        path = tmp_path / "negative.bin"
        save_model(trained, path)
        self.rewrite(path, rows_edit=lambda rows: rows.__setitem__(0, -1))
        with pytest.raises(InputError, match=r"negative\.bin: model rows outside \[0, "):
            load_model(path)

    @pytest.mark.parametrize("order", [
        "abc",
        ["supports", "supports", "other"],
        ["supports", "rejects", "maybe"],
        ["supports", "rejects"],
    ], ids=["string", "duplicate", "unknown", "missing"])
    def test_rejects_bad_label_order(self, trained, tmp_path, capsys, order):
        path = tmp_path / "labels.bin"
        save_model(trained, path)
        self.rewrite(path, header_edit=lambda h: h.update(label_order=order))
        with pytest.raises(InputError, match=r"labels\.bin: bad model header: label_order"):
            load_model(path)
        assert cli_main(["predict", "--model", str(path), "--text", "goed"]) == 2
        assert "labels.bin: bad model header: label_order" in capsys.readouterr().err

    def test_rejects_repeated_vocab_word(self, trained, tmp_path):
        # the n-gram rows start at len(vocab), which a repeated word would shift
        path = tmp_path / "vocab.bin"
        save_model(trained, path)
        self.rewrite(path, header_edit=lambda h: h["vocab"].__setitem__(1, h["vocab"][0]))
        with pytest.raises(InputError, match=r"vocab\.bin: bad model header: vocab repeats a word"):
            load_model(path)

    def test_accepts_permuted_label_order(self, trained, tmp_path):
        path = tmp_path / "permuted.bin"
        save_model(trained, path)
        self.rewrite(path, header_edit=lambda h: h.update(label_order=list(reversed(LABELS))))
        assert load_model(path).labels == tuple(reversed(LABELS))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="model file not found"):
            load_model(tmp_path / "nope.bin")

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"niet json\n\x00\x00")
        with pytest.raises(InputError, match="malformed model header"):
            load_model(path)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "list.bin"
        path.write_bytes(b"[1, 2]\n")
        with pytest.raises(InputError, match=r"list\.bin: malformed model header"):
            load_model(path)

    @pytest.mark.parametrize("header, reason", [
        (b"[" * 100_000, "JSON nested too deeply"),
        (b"\x80\x81abc", "'utf-8' codec can't decode byte 0x80 in position 0: invalid start byte"),
    ])
    def test_undecodable_header_names_line(self, tmp_path, header, reason):
        path = tmp_path / "bad.bin"
        path.write_bytes(header + b"\n")
        with pytest.raises(InputError) as info:
            load_model(path)
        assert str(info.value) == f"bad.bin: malformed model header: {reason}, line 1"

    def test_unsupported_version(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        raw = path.read_bytes()
        head, _, rest = raw.partition(b"\n")
        header = json.loads(head)
        header["format_version"] = 99
        path.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        with pytest.raises(InputError, match="unsupported model format 99"):
            load_model(path)

    def test_truncated_payload(self, trained, tmp_path):
        path = tmp_path / "model.bin"
        save_model(trained, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(InputError, match="model payload"):
            load_model(path)
