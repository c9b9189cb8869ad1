"""Evaluation harness: accuracy, fraction score, CV, grid search, curves.

The fraction score compares the reject/support ratio of the predictions
with the same ratio in the gold labels: f = r_pred / r_gold where
r = #rejects / #supports. "other" never enters r but does count toward
accuracy. A score of 1.0 means the predicted label distribution matches
the annotated one, which is the property the downstream time series
depend on.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import random
import select
import signal
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..exceptions import InputError
from .data import LABEL_INDEX, LABELS, LabeledExample
from .model import Hyperparams, StanceModel, label_corpus, train

logger = logging.getLogger(__name__)

OBJECTIVES = ("accuracy", "fraction_score")


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def worker_count(jobs: int) -> int:
    """Processes that ``grid_search``, ``cross_validate`` and ``learning_curve`` use.

    One forked worker per job, up to the usable CPUs. Only Linux counts as
    having a safe ``fork``; elsewhere, and for a single job or CPU, the jobs
    run in the calling process.
    """
    if sys.platform != "linux":
        return 1
    return max(1, min(jobs, _usable_cpus()))


def _reply(fn: Callable, job, read_end: int, write_end: int):
    """In a forked child: run ``fn(job)``, write its reply to the pipe and exit.

    The reply, pickled, is (log records the job emitted, result, exception).
    Never returns, so the child cannot run on in its parent's frames.
    """
    status = 1
    try:
        os.close(read_end)
        records = []
        capture = logging.Handler()
        capture.emit = records.append
        package = logging.getLogger("opinionpulse")
        # the worker's records go back to the parent, never to the stderr it inherited
        package.handlers[:] = [capture]
        package.propagate = False
        try:
            result, error = fn(job), None
        except Exception as exc:  # raised in the parent, after the job's records
            result, error = None, exc
        for record in records:
            record.msg, record.args, record.exc_info = record.getMessage(), None, None
        with os.fdopen(write_end, "wb") as out:
            out.write(pickle.dumps((records, result, error), pickle.HIGHEST_PROTOCOL))
        status = 0
    except BaseException:  # an unpicklable reply: the parent reports the exit status
        traceback.print_exc()
        raise
    finally:
        try:  # what the job printed, as a process that exits normally would
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _map(fn: Callable, jobs: list) -> list:
    """``[fn(job) for job in jobs]``, run by ``worker_count(len(jobs))`` processes.

    Each job runs in a child forked for it alone, so the child inherits the
    job, this process's modules and its logging setup; nothing is pickled on
    the way in. The child sends back its log records and its result or
    exception, pickled, over its own pipe, which is read to its end once it
    is readable, so a reply of any size cannot stall it. Each job's log
    records are handed to their loggers here, in job order, and the first
    failing job's exception is raised here, so the output and any error are
    those of an in-process run. A child that exits before it has replied
    raises ``RuntimeError``; on any error the children still running are
    killed and reaped.
    """
    workers = worker_count(len(jobs))
    if workers == 1:
        return [fn(job) for job in jobs]
    # a forked child flushes its copies of the std streams when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    replies = [None] * len(jobs)
    running = {}  # read end of a child's pipe -> (job index, pid)
    started, stop = 0, len(jobs)  # no job after the first failing one needs to run
    try:
        while running or started < stop:
            while started < stop and len(running) < workers:
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _reply(fn, jobs[started], read_end, write_end)
                os.close(write_end)  # so that a later child does not hold it open
                running[read_end] = (started, pid)
                started += 1
            for fd in select.select(list(running), [], [])[0]:
                index, pid = running[fd]
                # a child writes only once its job has returned, so its whole reply follows
                with os.fdopen(fd, "rb", closefd=False) as pipe:
                    reply = pipe.read()
                del running[fd]
                os.close(fd)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if status != 0:  # a child exits 0 only after its whole reply is written
                    raise RuntimeError(f"worker for job {index} exited with status "
                                       f"{status} before replying")
                replies[index] = pickle.loads(reply)
                if replies[index][2] is not None:
                    stop = min(stop, index + 1)
    finally:
        for fd, (_, pid) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
    results = []
    for records, result, error in replies[:stop]:
        for record in records:
            logging.getLogger(record.name).handle(record)
        if error is not None:
            raise error
        results.append(result)
    return results


@dataclass(frozen=True)
class EvaluationReport:
    accuracy: float
    confusion: tuple[tuple[int, ...], ...]  # rows gold, cols predicted, LABELS order
    r_gold: float | None
    r_pred: float | None
    fraction_score: float | None
    n: int
    labels: tuple[str, ...] = field(default=LABELS, init=False)  # names confusion's axes


def _reject_support_ratio(rejects: int, supports: int) -> float | None:
    if supports > 0:
        return rejects / supports
    if rejects > 0:
        return math.inf
    return None


def _fraction_score(r_pred: float | None, r_gold: float | None) -> float | None:
    """r_pred / r_gold with the degenerate ratios pinned down.

    Undefined ratios make the score undefined. Matching extremes (both 0,
    both infinite) count as a perfect 1.0; an extreme on one side only is
    an infinite mismatch or a hard 0.
    """
    if r_pred is None or r_gold is None:
        return None
    if math.isinf(r_gold):
        return 1.0 if math.isinf(r_pred) else 0.0
    if r_gold == 0:
        return 1.0 if r_pred == 0 else math.inf
    if math.isinf(r_pred):
        return math.inf
    return r_pred / r_gold


def report_from_labels(gold: Sequence[str], predicted: Sequence[str]) -> EvaluationReport:
    """Build an EvaluationReport from parallel label sequences."""
    if len(gold) != len(predicted):
        raise ValueError(
            f"label sequences differ in length: {len(gold)} vs {len(predicted)}"
        )
    if not gold:
        raise ValueError("empty evaluation set")
    counts = np.zeros((len(LABELS), len(LABELS)), dtype=np.int64)
    for g, p in zip(gold, predicted):
        if g not in LABEL_INDEX:
            raise ValueError(f"unknown gold label {g!r}")
        if p not in LABEL_INDEX:
            raise ValueError(f"unknown predicted label {p!r}")
        counts[LABEL_INDEX[g], LABEL_INDEX[p]] += 1

    n = len(gold)
    accuracy = int(np.trace(counts)) / n
    s, r = LABEL_INDEX["supports"], LABEL_INDEX["rejects"]
    r_gold = _reject_support_ratio(int(counts[r].sum()), int(counts[s].sum()))
    r_pred = _reject_support_ratio(int(counts[:, r].sum()), int(counts[:, s].sum()))
    return EvaluationReport(
        accuracy=accuracy,
        confusion=tuple(tuple(int(v) for v in row) for row in counts),
        r_gold=r_gold,
        r_pred=r_pred,
        fraction_score=_fraction_score(r_pred, r_gold),
        n=n,
    )


def evaluate(model: StanceModel, test: Sequence[LabeledExample]) -> EvaluationReport:
    """Report of the model's labels for ``test``, classified ``PREDICT_BATCH`` at a time.

    A text's label does not depend on its batch, so the report equals that
    of one ``predict_batch`` over the whole set. Beyond one gold and one
    predicted label per text, memory is that of one batch plus the model's
    word cache.
    """
    if not test:
        raise InputError("empty evaluation set")
    gold = [ex.label for ex in test]
    predicted = [label for _, label, _ in label_corpus(model, test)]
    return report_from_labels(gold, predicted)


@dataclass(frozen=True)
class CrossValidationResult:
    fold_reports: tuple[EvaluationReport, ...]
    mean_accuracy: float
    std_accuracy: float
    mean_fraction_score: float | None
    std_fraction_score: float | None


def _shuffled(items: list, seed: int) -> list:
    """A copy of ``items`` in the order ``random.Random(seed).shuffle`` gives."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def _mean_std(values: Sequence[float]) -> tuple[float | None, float | None]:
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return None, None
    return float(np.mean(finite)), float(np.std(finite))


def _train_and_evaluate(job) -> EvaluationReport:
    train_set, hp, test = job
    return evaluate(train(train_set, hp), test)


def cross_validate(
    examples: Sequence[LabeledExample],
    hp: Hyperparams | None = None,
    folds: int = 10,
    seed: int = 42,
) -> CrossValidationResult:
    """Seeded k-fold CV with contiguous folds over one shuffled order.

    Fold sizes differ by at most one; fold i trains with seed hp.seed+i
    so repeated runs are reproducible end to end. Folds train in parallel
    (see ``worker_count``).
    """
    hp = hp or Hyperparams()
    examples = list(examples)
    n = len(examples)
    if folds < 2:
        raise InputError("folds must be at least 2")
    if n < folds:
        raise InputError(f"{n} examples cannot fill {folds} folds")

    shuffled = _shuffled(examples, seed)
    base, extra = divmod(n, folds)
    jobs = []
    start = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        test = shuffled[start : start + size]
        train_set = shuffled[:start] + shuffled[start + size :]
        start += size
        jobs.append((train_set, replace(hp, seed=hp.seed + i), test))
    reports = _map(_train_and_evaluate, jobs)

    mean_acc, std_acc = _mean_std([rep.accuracy for rep in reports])
    mean_frac, std_frac = _mean_std([rep.fraction_score for rep in reports])
    return CrossValidationResult(
        fold_reports=tuple(reports),
        mean_accuracy=mean_acc,
        std_accuracy=std_acc,
        mean_fraction_score=mean_frac,
        std_fraction_score=std_frac,
    )


@dataclass(frozen=True)
class GridRow:
    hyperparams: Hyperparams
    validation: EvaluationReport
    score: float


@dataclass(frozen=True)
class GridSearchResult:
    best: Hyperparams
    validation: EvaluationReport
    test: EvaluationReport
    table: tuple[GridRow, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def _objective_score(report: EvaluationReport, objective: str) -> float:
    if objective == "accuracy":
        return report.accuracy
    # min(f, 1/f): over-predicting rejects scores as badly as under-predicting.
    f = report.fraction_score
    if f is None:
        return -math.inf
    return min(f, 1 / f) if f else 0.0


def _grid_config(job) -> tuple[GridRow, EvaluationReport]:
    """Train one config; its validation row and its report on the test slice.

    Every config is scored on the test slice, so its model dies here and
    only the winner's test report is kept by the caller.
    """
    train_set, val_set, test_set, hp, objective = job
    model = train(train_set, hp)
    report = evaluate(model, val_set)
    score = _objective_score(report, objective)
    logger.info(
        "grid config dim=%d epochs=%d lr=%g -> %s=%.4f",
        hp.dim, hp.epochs, hp.lr, objective, score,
    )
    return GridRow(hyperparams=hp, validation=report, score=score), evaluate(model, test_set)


def grid_search(
    examples: Sequence[LabeledExample],
    grid: Sequence[Hyperparams],
    objective: str = "fraction_score",
    seed: int = 42,
) -> GridSearchResult:
    """Select hyperparameters on an 80/10/10 split of one shuffled order.

    Every config trains once on the same 80% and is scored on the 10%
    validation slice and on the final 10%; the winner's score there is
    reported. Ties go to the smaller dim, then fewer epochs, then smaller
    lr. Configs train in parallel (see ``worker_count``); the result is
    that of a run in this process.
    """
    grid = list(grid)
    if not grid:
        raise InputError("empty hyperparameter grid")
    if objective not in OBJECTIVES:
        raise InputError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")

    examples = list(examples)
    n = len(examples)
    shuffled = _shuffled(examples, seed)
    i1, i2 = round(0.8 * n), round(0.9 * n)
    train_set, val_set, test_set = shuffled[:i1], shuffled[i1:i2], shuffled[i2:]
    if not train_set or not val_set or not test_set:
        raise InputError(f"{n} examples are too few for an 80/10/10 split")

    jobs = [(train_set, val_set, test_set, hp, objective) for hp in grid]
    rows = []
    best = None  # (key, validation row, test report) of the leader
    for row, test in _map(_grid_config, jobs):
        rows.append(row)
        hp = row.hyperparams
        key = (row.score, -hp.dim, -hp.epochs, -hp.lr)
        if best is None or key > best[0]:
            best = (key, row, test)

    _, winner, test = best
    return GridSearchResult(best=winner.hyperparams, validation=winner.validation, test=test,
                            table=tuple(rows))


@dataclass(frozen=True)
class LearningCurvePoint:
    size: int
    mean_accuracy: float
    mean_fraction_score: float | None


def write_learning_curve_csv(points: Sequence[LearningCurvePoint], handle) -> None:
    """Write ``size,mean_accuracy,mean_fraction_score`` rows; an undefined score is empty."""
    handle.write("size,mean_accuracy,mean_fraction_score\n")
    for point in points:
        frac = "" if point.mean_fraction_score is None else repr(point.mean_fraction_score)
        handle.write(f"{point.size},{point.mean_accuracy!r},{frac}\n")


def learning_curve(
    examples: Sequence[LabeledExample],
    hp: Hyperparams | None = None,
    train_sizes: Sequence[int] = (),
    repeats: int = 1,
    seed: int = 42,
    test_size: int | None = None,
) -> list[LearningCurvePoint]:
    """Accuracy and fraction score as functions of training-set size.

    One seeded shuffle fixes a held-out test tail shared by every size.
    Repeat r permutes the remaining pool with seed+1+r and trains on
    nested prefixes (each size extends the previous one) with model seed
    hp.seed+r; reported values are means over repeats. Every (repeat,
    size) pair is one training job, run in parallel (see ``worker_count``).
    """
    hp = hp or Hyperparams()
    examples = list(examples)
    n = len(examples)
    sizes = list(train_sizes)
    if not sizes:
        raise InputError("train_sizes is empty")
    if any(s < 1 for s in sizes) or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("train_sizes must be positive and strictly increasing")
    if repeats < 1:
        raise InputError("repeats must be at least 1")
    if test_size is None:
        test_size = n - max(sizes)
    if test_size < 1:
        raise InputError("no examples left for the test set")
    if max(sizes) + test_size > n:
        raise InputError(
            f"train size {max(sizes)} plus test size {test_size} exceeds {n} examples"
        )

    shuffled = _shuffled(examples, seed)
    test_set = shuffled[n - test_size :]
    pool = shuffled[: n - test_size]

    jobs = []
    for r in range(repeats):
        rep_pool = _shuffled(pool, seed + 1 + r)
        jobs.extend((rep_pool[:size], replace(hp, seed=hp.seed + r), test_set) for size in sizes)
    reports = _map(_train_and_evaluate, jobs)

    points = []
    for i, size in enumerate(sizes):
        own = reports[i :: len(sizes)]  # this size's report of each repeat, in repeat order
        accuracy = 0.0
        for report in own:  # a plain loop: sum() rounds differently from Python 3.12
            accuracy += report.accuracy
        mean_fraction, _ = _mean_std([report.fraction_score for report in own])
        points.append(LearningCurvePoint(size, accuracy / repeats, mean_fraction))
    return points
