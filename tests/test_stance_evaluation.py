"""Metrics, cross-validation, grid search and learning curves."""

import json
import logging
import math
import os
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_separable
from opinionpulse.exceptions import InputError
from opinionpulse.stance import (
    Hyperparams,
    cross_validate,
    evaluate,
    grid_search,
    learning_curve,
    report_from_labels,
    train,
)
from opinionpulse.stance import evaluation
from opinionpulse.stance import model as model_module
from opinionpulse.stance.data import LABELS, LabeledExample
from opinionpulse.stance.evaluation import GridRow, GridSearchResult
from opinionpulse.stance.model import PREDICT_BATCH

FAST = Hyperparams(dim=16, epochs=25, lr=0.3, bucket=2000, seed=42)


def labels_from_counts(gold_pred_counts):
    """Expand {(gold, pred): count} into parallel label sequences."""
    gold, pred = [], []
    for (g, p), count in gold_pred_counts.items():
        gold.extend([g] * count)
        pred.extend([p] * count)
    return gold, pred


def brute_fraction(gold, pred):
    """Exact rational fraction score; mirrors the documented conventions."""
    def ratio(labels):
        supports, rejects = labels.count("supports"), labels.count("rejects")
        if supports > 0:
            return Fraction(rejects, supports)
        return math.inf if rejects > 0 else None

    r_gold, r_pred = ratio(gold), ratio(pred)
    if r_gold is None or r_pred is None:
        return None
    if r_gold == math.inf:
        return 1.0 if r_pred == math.inf else 0.0
    if r_gold == 0:
        return 1.0 if r_pred == 0 else math.inf
    if r_pred == math.inf:
        return math.inf
    return r_pred / r_gold


class TestReportFromLabels:
    def test_majority_baseline_is_exact(self):
        # gold 56% supports / 24% rejects / 20% other, all-supports predictor
        gold, pred = labels_from_counts({
            ("supports", "supports"): 56,
            ("rejects", "supports"): 24,
            ("other", "supports"): 20,
        })
        report = report_from_labels(gold, pred)
        assert report.accuracy == 0.56
        assert report.fraction_score == 0.0
        assert report.r_gold == pytest.approx(24 / 56, abs=1e-15)
        assert report.r_pred == 0.0

    def test_equal_ratios_give_one(self):
        gold, pred = labels_from_counts({
            ("supports", "rejects"): 1,
            ("rejects", "supports"): 1,
            ("supports", "supports"): 2,
            ("rejects", "rejects"): 2,
        })
        report = report_from_labels(gold, pred)
        assert report.fraction_score == 1.0

    def test_hand_case_three_quarters(self):
        # gold 18 supports / 12 rejects, predicted 20 supports / 10 rejects
        gold, pred = labels_from_counts({
            ("supports", "supports"): 18,
            ("rejects", "supports"): 2,
            ("rejects", "rejects"): 10,
        })
        report = report_from_labels(gold, pred)
        assert report.fraction_score == pytest.approx(0.75, abs=1e-15)
        assert report.r_gold == pytest.approx(12 / 18, abs=1e-15)
        assert report.r_pred == 0.5

    def test_no_gold_supports_is_undefined_not_zero(self):
        gold, pred = labels_from_counts({
            ("other", "supports"): 2,
            ("other", "rejects"): 1,
        })
        report = report_from_labels(gold, pred)
        assert report.r_gold is None
        assert report.fraction_score is None

    def test_gold_only_rejects_matches_only_infinite_predictions(self):
        gold = ["rejects", "rejects"]
        assert report_from_labels(gold, ["rejects", "rejects"]).fraction_score == 1.0
        assert report_from_labels(gold, ["supports", "rejects"]).fraction_score == 0.0

    def test_gold_zero_ratio_cases(self):
        gold = ["supports", "supports"]
        assert report_from_labels(gold, ["supports", "supports"]).fraction_score == 1.0
        assert report_from_labels(gold, ["rejects", "supports"]).fraction_score == math.inf

    def test_infinite_prediction_ratio(self):
        gold = ["supports", "rejects"]
        report = report_from_labels(gold, ["rejects", "rejects"])
        assert report.r_pred == math.inf
        assert report.fraction_score == math.inf

    def test_confusion_margins(self):
        rng = random.Random(7)
        gold = rng.choices(LABELS, k=60)
        pred = rng.choices(LABELS, k=60)
        report = report_from_labels(gold, pred)
        for i, label in enumerate(LABELS):
            assert sum(report.confusion[i]) == gold.count(label)
            assert sum(row[i] for row in report.confusion) == pred.count(label)
        trace = sum(report.confusion[i][i] for i in range(len(LABELS)))
        assert report.accuracy == trace / 60

    def test_accuracy_matches_direct_count(self):
        rng = random.Random(8)
        for _ in range(50):
            n = rng.randint(1, 40)
            gold = rng.choices(LABELS, k=n)
            pred = rng.choices(LABELS, k=n)
            expected = sum(g == p for g, p in zip(gold, pred)) / n
            assert report_from_labels(gold, pred).accuracy == expected

    def test_random_tables_match_exact_arithmetic(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 50)
            gold = rng.choices(LABELS, k=n)
            pred = rng.choices(LABELS, k=n)
            expected = brute_fraction(gold, pred)
            actual = report_from_labels(gold, pred).fraction_score
            if expected is None:
                assert actual is None
            elif isinstance(expected, float):  # the pinned 0.0/1.0/inf cases
                assert actual == expected
            else:
                assert actual == pytest.approx(float(expected), abs=1e-12)

    @given(st.lists(st.sampled_from(LABELS), min_size=1, max_size=30))
    def test_fraction_nonnegative_when_defined(self, gold):
        pred = list(reversed(gold))
        score = report_from_labels(gold, pred).fraction_score
        if score is not None:
            assert score >= 0.0

    @given(st.lists(st.sampled_from(LABELS), min_size=2, max_size=30))
    def test_perfect_predictor(self, gold):
        report = report_from_labels(gold, gold)
        assert report.accuracy == 1.0
        if "supports" in gold and "rejects" in gold:
            assert report.fraction_score == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            report_from_labels(["supports"], ["supports", "other"])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty evaluation set"):
            report_from_labels([], [])

    def test_unknown_labels(self):
        with pytest.raises(ValueError, match="unknown gold label 'ja'"):
            report_from_labels(["ja"], ["supports"])
        with pytest.raises(ValueError, match="unknown predicted label 'nee'"):
            report_from_labels(["supports"], ["nee"])


class TestEvaluate:
    def test_perfect_on_training_data(self):
        examples = make_separable(120, seed=4)
        model = train(examples, FAST)
        report = evaluate(model, examples)
        assert report.n == 120
        assert report.accuracy == 1.0
        assert report.fraction_score == 1.0

    def test_classifies_in_batches_with_the_whole_set_report(self, monkeypatch):
        examples = make_separable(150, seed=4, noise=0.2)
        known = sorted({word for ex in examples for word in ex.text.split()})
        rng = random.Random(6)
        # a long tail: most words are new, so most of their n-gram rows are fresh
        test = []
        for i in range(3 * PREDICT_BATCH + 5):
            words = rng.sample(known, 2) + ["".join(rng.choices("abcdefghijklmnop", k=6))
                                            for _ in range(rng.randint(0, 4))]
            test.append(LabeledExample(" ".join(words), LABELS[i % 3]))
        whole = [label for label, _ in model_module.predict_batch(
            train(examples, FAST), [ex.text for ex in test])]
        expected = report_from_labels([ex.label for ex in test], whole)

        sizes = []
        predict_batch = model_module.predict_batch

        def spy(model, texts):
            sizes.append(len(texts))
            return predict_batch(model, texts)

        monkeypatch.setattr(model_module, "predict_batch", spy)
        report = evaluate(train(examples, FAST), test)
        assert sum(sizes) == len(test) and max(sizes) <= PREDICT_BATCH
        assert report == expected
        assert 0 < report.accuracy < 1

    def test_empty_test_set(self):
        examples = make_separable(60, seed=4)
        model = train(examples, FAST)
        with pytest.raises(InputError, match="empty evaluation set"):
            evaluate(model, [])


class TestCrossValidate:
    def test_ten_folds_of_ten(self):
        examples = make_separable(100, seed=6)
        result = cross_validate(examples, FAST, folds=10, seed=42)
        assert len(result.fold_reports) == 10
        assert all(report.n == 10 for report in result.fold_reports)

    def test_uneven_folds_differ_by_at_most_one(self):
        examples = make_separable(103, seed=6)
        result = cross_validate(examples, FAST, folds=10, seed=42)
        sizes = [report.n for report in result.fold_reports]
        assert sum(sizes) == 103
        assert set(sizes) == {10, 11}
        assert sizes == sorted(sizes, reverse=True)

    def test_two_folds_on_separable_data(self):
        examples = make_separable(200, seed=2)
        result = cross_validate(examples, FAST, folds=2, seed=42)
        assert all(report.accuracy > 0.9 for report in result.fold_reports)

    def test_reproducible_under_seed(self):
        examples = make_separable(80, seed=6)
        first = cross_validate(examples, FAST, folds=4, seed=11)
        second = cross_validate(examples, FAST, folds=4, seed=11)
        assert first == second

    def test_summary_matches_fold_reports(self):
        examples = make_separable(90, seed=12)
        result = cross_validate(examples, FAST, folds=5, seed=42)
        accuracies = [report.accuracy for report in result.fold_reports]
        assert result.mean_accuracy == pytest.approx(float(np.mean(accuracies)), abs=1e-12)
        assert result.std_accuracy == pytest.approx(float(np.std(accuracies)), abs=1e-12)
        fracs = [
            report.fraction_score
            for report in result.fold_reports
            if report.fraction_score is not None and math.isfinite(report.fraction_score)
        ]
        assert result.mean_fraction_score == pytest.approx(float(np.mean(fracs)), abs=1e-12)

    def test_too_few_examples(self):
        examples = make_separable(6, seed=1)
        with pytest.raises(InputError, match="6 examples cannot fill 10 folds"):
            cross_validate(examples, FAST, folds=10)

    def test_folds_below_two(self):
        examples = make_separable(10, seed=1)
        with pytest.raises(InputError, match="folds must be at least 2"):
            cross_validate(examples, FAST, folds=1)


STARVED = Hyperparams(dim=10, epochs=1, lr=0.05, bucket=2000, seed=42)
MIDDLE = Hyperparams(dim=12, epochs=3, lr=0.1, bucket=2000, seed=42)


def retrain_reference(examples, grid, objective, seed):
    """Grid search that scores each config, then retrains the winner for the test slice."""
    n = len(examples)
    shuffled = list(examples)
    random.Random(seed).shuffle(shuffled)
    i1, i2 = round(0.8 * n), round(0.9 * n)
    train_set, val_set, test_set = shuffled[:i1], shuffled[i1:i2], shuffled[i2:]
    rows, best = [], None
    for hp in grid:
        report = evaluate(train(train_set, hp), val_set)
        score = evaluation._objective_score(report, objective)
        rows.append(GridRow(hyperparams=hp, validation=report, score=score))
        key = (score, -hp.dim, -hp.epochs, -hp.lr)
        if best is None or key > best[0]:
            best = (key, hp, report)
    _, best_hp, validation = best
    return GridSearchResult(best=best_hp, validation=validation,
                            test=evaluate(train(train_set, best_hp), test_set), table=tuple(rows))


class TestGridSearch:
    def test_singleton_grid(self):
        examples = make_separable(200, seed=2)
        result = grid_search(examples, [FAST], seed=42)
        assert result.best == FAST
        assert len(result.table) == 1
        assert result.validation.n == 20 and result.test.n == 20

    @pytest.mark.parametrize("objective", ["accuracy", "fraction_score"])
    def test_strong_config_beats_starved_one(self, objective):
        examples = make_separable(200, seed=2)
        result = grid_search(examples, [STARVED, FAST], objective=objective, seed=42)
        assert result.best == FAST

    def test_deterministic(self):
        examples = make_separable(200, seed=2)
        first = grid_search(examples, [STARVED, FAST], seed=42)
        second = grid_search(examples, [STARVED, FAST], seed=42)
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("fraction, score", [(None, -math.inf), (0.0, 0.0), (math.inf, 0.0),
                                                 (0.5, 0.5), (2.0, 0.5), (1.0, 1.0)])
    def test_fraction_objective_is_symmetric(self, fraction, score):
        report = evaluation.EvaluationReport(accuracy=0.25, confusion=(), r_gold=None,
                                             r_pred=None, fraction_score=fraction, n=4)
        assert evaluation._objective_score(report, "fraction_score") == score
        assert evaluation._objective_score(report, "accuracy") == 0.25

    def test_to_dict_keeps_the_grid_json_layout(self):
        def report_dict(report):  # each report's members, as grid.json has always held them
            return {"accuracy": report.accuracy,
                    "confusion": [list(row) for row in report.confusion], "labels": list(LABELS),
                    "r_gold": report.r_gold, "r_pred": report.r_pred,
                    "fraction_score": report.fraction_score, "n": report.n}

        result = grid_search(make_separable(200, seed=2), [STARVED, FAST], seed=42)
        expected = {"best": result.best.to_dict(), "validation": report_dict(result.validation),
                    "test": report_dict(result.test),
                    "table": [{"hyperparams": row.hyperparams.to_dict(),
                               "validation": report_dict(row.validation), "score": row.score}
                              for row in result.table]}
        got = result.to_dict()
        assert (json.dumps(got, sort_keys=True, indent=2)
                == json.dumps(expected, sort_keys=True, indent=2))
        reports = [got["validation"], got["test"], *[row["validation"] for row in got["table"]]]
        for report in reports:
            assert set(report) == {"accuracy", "confusion", "labels", "r_gold", "r_pred",
                                   "fraction_score", "n"}
            assert tuple(report["labels"]) == LABELS

    def test_tie_breaks_to_smaller_dim(self):
        # both configs separate the validation slice perfectly -> tie on score
        examples = make_separable(200, seed=2)
        bigger = Hyperparams(dim=32, epochs=25, lr=0.3, bucket=2000, seed=42)
        result = grid_search(examples, [bigger, FAST], objective="accuracy", seed=42)
        row_scores = [row.score for row in result.table]
        assert row_scores[0] == row_scores[1] == 1.0
        assert result.best == FAST

    def test_table_preserves_grid_order(self):
        examples = make_separable(200, seed=2)
        result = grid_search(examples, [STARVED, FAST], seed=42)
        assert [row.hyperparams for row in result.table] == [STARVED, FAST]

    def test_trains_each_config_once(self, monkeypatch):
        calls = []

        def counting_train(examples, hp=None):
            calls.append(hp)
            return train(examples, hp)

        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(evaluation, "train", counting_train)
        grid_search(make_separable(200, seed=2), [STARVED, MIDDLE, FAST], seed=42)
        assert calls == [STARVED, MIDDLE, FAST]

    def test_trains_each_config_once_in_workers(self, monkeypatch, tmp_path):
        # a forked worker's appends to a list stay in the worker; a file sees them all
        calls = tmp_path / "calls.txt"

        def counting_train(examples, hp=None):
            with open(calls, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {hp.dim} {hp.epochs} {hp.lr}\n")
            return train(examples, hp)

        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(evaluation, "train", counting_train)
        grid_search(make_separable(200, seed=2), [STARVED, MIDDLE, FAST], seed=42)
        pids, configs = zip(*(line.split(" ", 1)
                              for line in calls.read_text(encoding="utf-8").splitlines()))
        assert sorted(configs) == sorted(f"{hp.dim} {hp.epochs} {hp.lr}"
                                         for hp in [STARVED, MIDDLE, FAST])
        assert str(os.getpid()) not in pids

    @pytest.mark.parametrize("objective", ["accuracy", "fraction_score"])
    @pytest.mark.parametrize("grid", [[FAST, STARVED], [STARVED, MIDDLE, FAST], [MIDDLE, FAST]])
    def test_equals_retraining_the_winner(self, objective, grid):
        examples = make_separable(200, seed=2)
        result = grid_search(examples, grid, objective=objective, seed=42)
        assert result == retrain_reference(examples, grid, objective, seed=42)
        assert result.best == FAST

    def test_empty_grid(self):
        with pytest.raises(InputError, match="empty hyperparameter grid"):
            grid_search(make_separable(100, seed=1), [])

    def test_unknown_objective(self):
        with pytest.raises(InputError, match="unknown objective 'f2'"):
            grid_search(make_separable(100, seed=1), [FAST], objective="f2")

    def test_too_few_examples_for_split(self):
        with pytest.raises(InputError, match="too few for an 80/10/10 split"):
            grid_search(make_separable(5, seed=1), [FAST], seed=42)


class TestLearningCurve:
    def test_accuracy_grows_with_training_size(self):
        examples = make_separable(400, seed=3, noise=0.1)
        points = learning_curve(
            examples, FAST, train_sizes=(40, 160, 320), repeats=2, seed=42,
        )
        assert [p.size for p in points] == [40, 160, 320]
        accuracies = [p.mean_accuracy for p in points]
        assert accuracies[-1] >= accuracies[0]
        for smaller, larger in zip(accuracies, accuracies[1:]):
            assert larger >= smaller - 0.02

    def test_single_point_matches_documented_derivation(self):
        # noisy labels, so that another shuffle rule would give another accuracy
        examples = make_separable(150, seed=8, noise=0.3)
        seed, size, test_size = 5, 100, 50
        points = learning_curve(
            examples, FAST, train_sizes=(size,), repeats=1, seed=seed, test_size=test_size,
        )

        shuffled = list(examples)
        random.Random(seed).shuffle(shuffled)
        test_set = shuffled[-test_size:]
        pool = shuffled[:-test_size]
        random.Random(seed + 1).shuffle(pool)
        model = train(pool[:size], FAST)
        report = evaluate(model, test_set)

        assert points[0].mean_accuracy == report.accuracy
        assert points[0].mean_fraction_score == pytest.approx(report.fraction_score, abs=1e-12)

    def test_repeats_reproducible(self):
        examples = make_separable(200, seed=3)
        first = learning_curve(examples, FAST, train_sizes=(50, 150), repeats=2, seed=9)
        second = learning_curve(examples, FAST, train_sizes=(50, 150), repeats=2, seed=9)
        assert first == second

    def test_default_test_size_is_the_remainder(self):
        examples = make_separable(120, seed=3)
        points = learning_curve(examples, FAST, train_sizes=(30, 90), seed=42)
        assert [p.size for p in points] == [30, 90]

    def test_sizes_must_increase(self):
        examples = make_separable(100, seed=1)
        with pytest.raises(InputError, match="strictly increasing"):
            learning_curve(examples, FAST, train_sizes=(50, 50))
        with pytest.raises(InputError, match="strictly increasing"):
            learning_curve(examples, FAST, train_sizes=(50, 40))

    def test_empty_sizes(self):
        with pytest.raises(InputError, match="train_sizes is empty"):
            learning_curve(make_separable(100, seed=1), FAST, train_sizes=())

    def test_oversized_request(self):
        examples = make_separable(100, seed=1)
        with pytest.raises(InputError, match="exceeds 100 examples"):
            learning_curve(examples, FAST, train_sizes=(90,), test_size=20)

    def test_no_room_for_test_set(self):
        examples = make_separable(100, seed=1)
        with pytest.raises(InputError, match="no examples left"):
            learning_curve(examples, FAST, train_sizes=(100,))

    def test_repeats_validated(self):
        examples = make_separable(100, seed=1)
        with pytest.raises(InputError, match="repeats must be at least 1"):
            learning_curve(examples, FAST, train_sizes=(50,), repeats=0)


@pytest.fixture
def in_both(monkeypatch):
    """Call a function in this process, then with two forked workers; both results."""
    def run(fn, *args, **kwargs):
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
            results.append(fn(*args, **kwargs))
        return results
    return run


def log_and_fail_at_three(job):
    """Log one record, finishing out of job order, and fail at job 3."""
    time.sleep(0.2 if job == 0 else 0)
    logging.getLogger("opinionpulse.stance.evaluation").warning("job %d", job)
    if job == 3:
        raise InputError(f"job {job} failed")
    return job


def big_reply(job):
    return bytes([job]) * (1 << 20)  # more than a pipe buffer holds


def exit_at_one(job):
    if job == 0:
        time.sleep(30)  # still running when job 1 fails, so it must be killed
    if job == 1:
        os._exit(3)
    return job


class TestWorkers:
    @pytest.mark.parametrize("objective", ["accuracy", "fraction_score"])
    @pytest.mark.parametrize("grid", [[STARVED, MIDDLE, FAST], [FAST, STARVED]])
    def test_grid_search_equals_in_process(self, in_both, objective, grid):
        examples = make_separable(200, seed=2)
        one, two = in_both(grid_search, examples, grid, objective=objective, seed=42)
        assert one == two
        assert two.best == FAST

    def test_cross_validate_equals_in_process(self, in_both):
        one, two = in_both(cross_validate, make_separable(60, seed=4, noise=0.2), FAST,
                           folds=3, seed=7)
        assert one == two

    def test_learning_curve_equals_in_process(self, in_both):
        one, two = in_both(learning_curve, make_separable(200, seed=3, noise=0.1), FAST,
                           train_sizes=(40, 120), repeats=2, seed=9)
        assert one == two

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        assert [evaluation.worker_count(jobs) for jobs in (0, 1, 2, 27)] == [1, 1, 2, 2]
        monkeypatch.setattr(evaluation.sys, "platform", "darwin")
        assert evaluation.worker_count(27) == 1

    def test_records_in_job_order_then_first_error(self, in_both, caplog):
        def run(jobs):
            caplog.clear()
            with pytest.raises(InputError) as raised:
                evaluation._map(log_and_fail_at_three, jobs)
            records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
            return records, type(raised.value), raised.value.args

        one, two = in_both(run, list(range(5)))
        assert one == two
        assert one[0] == [("opinionpulse.stance.evaluation", logging.WARNING, f"job {job}")
                          for job in range(4)]
        assert one[2] == ("job 3 failed",)

    def test_large_replies_and_a_dead_worker(self, monkeypatch):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
        assert evaluation.worker_count(3) == 2  # in-process, exit_at_one would end pytest
        assert evaluation._map(big_reply, [0, 1, 2]) == [big_reply(job) for job in (0, 1, 2)]
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="job 1 exited with status 3"):
            evaluation._map(exit_at_one, [0, 1, 2])
        assert time.monotonic() - start < 10  # job 0 was killed, not waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every worker has been reaped
